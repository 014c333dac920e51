// Streaming, bounded-memory analysis (DESIGN.md §12).
//
// StreamAnalyzer runs the reconstruction engine (fold.h) with the path-tree
// sink: a spill session of any size is folded in one pass over its chunk
// sequence, holding only
//
//   - per-shard open-frame stacks (bounded by live call depth),
//   - a per-shard path tree: one node, with its rolling aggregate, per
//     distinct root-to-frame path (bounded by the number of *distinct*
//     folded paths),
//   - two chunk files: the one being folded and the one a reader thread
//     reads and verifies ahead of it.
//
// No Invocation is ever materialized. Shards fold in parallel (a thread's
// entries are confined to one shard, and every aggregate is a sum/min/max,
// so worker scheduling cannot change the result); finish_tree() merges
// the shards' trees in shard order into the session tree that the path
// reports read, and finish() names it into the MergeableProfile that the
// table reports read. Profile runs the same fold with the invocation sink;
// the differential tests in tests/test_analyze_stream.cc hold the two sinks
// equal, and the golden `.mprof`s anchor the fold itself.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

class StreamAnalyzer {
 public:
  explicit StreamAnalyzer(std::unordered_map<u64, std::string> symbols = {});

  // Feeds one span of a shard's stream, in per-shard order, from one
  // thread at a time (analyze() folds the shards of a dump in parallel).
  void feed(u32 shard, const LogEntry* entries, u64 n);

  void set_ns_per_tick(double ns) { ns_per_tick_ = ns; }

  // Closes every still-open frame (incomplete, ended at the thread's last
  // counter) and merges the shards' trees, in shard order, into the
  // session tree. Call it once: the symbols move into the result.
  SessionTree finish_tree();

  // The aggregate of finish_tree(), with sessions == 1.
  MergeableProfile finish();

  // One-call entry points over the session walker (fold.h), reading one
  // chunk file at a time. Spill sessions are detected by the presence of
  // "<prefix>.seg.0000"; "<prefix>.sym" is loaded when present.
  static std::optional<SessionTree> analyze_tree(const std::string& prefix,
                                                 std::string* error = nullptr);
  static std::optional<MergeableProfile> analyze(const std::string& prefix,
                                                 std::string* error = nullptr);
  // The same call, under the name spill-session callers use.
  static std::optional<MergeableProfile> analyze_spill(
      const std::string& prefix, std::string* error = nullptr);

 private:
  SessionFold<PathTree> folds_;
  std::unordered_map<u64, std::string> symbols_;
  double ns_per_tick_ = 0.0;
};

}  // namespace teeperf::analyzer
