// Streaming, bounded-memory analysis (DESIGN.md §12).
//
// Profile::load_spill stitches a whole session into memory before
// reconstructing — fine for sessions near the shm window, hopeless for the
// multi-GB chunk streams the spill drainer produces. StreamAnalyzer runs
// the same call-stack reconstruction as Profile::build in a single pass
// over the chunk sequence, holding only:
//
//   - per-shard open-invocation stacks (bounded by live call depth),
//   - a per-shard path tree: one node, with its rolling aggregate, per
//     distinct root-to-frame path (bounded by the number of *distinct*
//     folded paths),
//   - two chunk files: the one being folded and the one a reader thread
//     reads and verifies ahead of it.
//
// No Invocation is ever materialized. Shards aggregate in parallel (a
// thread's entries are confined to one shard, and every aggregate is a
// sum/min/max, so worker scheduling cannot change the result); finish()
// derives the method, edge and folded-stack aggregates from the path
// trees and folds shards in directory order into a MergeableProfile. The
// result is held byte-identical to
// MergeableProfile::from_profile(Profile::load(...)) by the differential
// tests in tests/test_analyze_stream.cc.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/dump_reader.h"
#include "analyzer/mprof.h"
#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

class StreamAnalyzer {
 public:
  explicit StreamAnalyzer(std::unordered_map<u64, std::string> symbols = {});

  // Feeds one span of a shard's stream, in per-shard order. Distinct shards
  // may feed concurrently (their state is disjoint); one shard must not.
  // Call ensure_shards() first when feeding from multiple threads.
  void feed(u32 shard, const LogEntry* entries, u64 n);

  // Feeds every window of a parsed dump, shards in parallel.
  void feed_dump(const ParsedDump& dump);

  // Grows the shard table (never shrinks). Required before concurrent
  // feed() calls so the table is not resized under a reader.
  void ensure_shards(usize n);

  void set_ns_per_tick(double ns) { ns_per_tick_ = ns; }

  // Closes every still-open frame (incomplete, ended at the thread's last
  // counter — the same policy as Profile::build) and folds all shards, in
  // shard order, into one aggregate with sessions == 1.
  MergeableProfile finish();

  // One-call entry points mirroring Profile::load / load_spill but reading
  // one chunk file at a time. analyze() auto-detects spill sessions by the
  // presence of "<prefix>.seg.0000"; both load "<prefix>.sym" when present.
  static std::optional<MergeableProfile> analyze(const std::string& prefix,
                                                 std::string* error = nullptr);
  static std::optional<MergeableProfile> analyze_spill(
      const std::string& prefix, std::string* error = nullptr);

 private:
  // The aggregate of every closed frame of one path-tree node.
  struct NodeAgg {
    u64 count = 0;
    u64 inclusive_total = 0;
    u64 exclusive_total = 0;
    u64 min_inclusive = ~0ull;
    u64 max_inclusive = 0;
    void add(const NodeAgg& o);
  };

  // One distinct root-to-frame path: the path of `parent` plus a call of
  // `method`. Open frames name their node, so closing a frame updates one
  // node instead of hashing the folded path string.
  struct PathNode {
    u64 method = 0;
    u32 parent = 0;
    NodeAgg agg;
  };

  // The distinct paths of one shard — or, in finish(), of the whole
  // session — each with the aggregate of its closed frames. Node ids grow
  // from parent to child.
  class PathTree {
   public:
    PathTree() : nodes_(1) {}
    // The node for a call of `method` below `parent`, created on first sight.
    u32 child(u32 parent, u64 method);
    std::vector<PathNode>& nodes() { return nodes_; }
    const std::vector<PathNode>& nodes() const { return nodes_; }

   private:
    // Open-addressing (parent, method) -> node table, at most half full.
    // This lookup runs once per call entry, so it stays one flat array.
    struct Slot {
      u64 method = 0;
      u32 parent = 0;
      u32 node = 0;  // 0 = empty: the root is nobody's child
    };
    static usize slot_of(u32 parent, u64 method, usize mask);
    void grow();

    std::vector<PathNode> nodes_;  // [0] is the root, which is no frame
    std::vector<Slot> slots_;
  };

  // One open invocation. `children` sums the inclusive time of closed
  // callees, as the parent Invocation's would in Profile::build.
  struct Frame {
    u64 method = 0;
    u64 start = 0;
    u64 children = 0;
    u32 node = 0;
  };

  struct ThreadState {
    std::vector<Frame> open;
    u64 last_counter = 0;
  };

  // All state one shard's reconstruction touches — disjoint across shards,
  // which is what makes parallel feeding safe without locks.
  struct ShardState {
    std::map<u64, ThreadState> threads;
    PathTree paths;
    ReconstructionStats recon;
  };

  std::string name_of(u64 method) const {
    return resolve_name(symbols_, method);
  }
  // Closes the top frame of `t` at counter `end_counter`.
  static void close_top(ShardState& sh, ThreadState& t, u64 end_counter);
  // Adds the session tree's aggregates to `m`, keyed by name: methods,
  // call edges and folded stacks.
  void fold_tree(const PathTree& tree, MergeableProfile* m) const;

  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unordered_map<u64, std::string> symbols_;
  double ns_per_tick_ = 0.0;
};

}  // namespace teeperf::analyzer
