// The reconstruction engine (§II-B, stage #3; DESIGN.md §12).
//
// Rebuilding every thread's call stacks from its call and return entries,
// and rolling up inclusive and exclusive time, is written once, here:
// ShardFold<Sink> is one shard's fold and the whole repair policy; its
// compile-time sink is either PathTree (aggregates per distinct path, for
// StreamAnalyzer) or InvocationSink (every Invocation, for Profile).
// SessionFold folds a dump's shards in parallel, walk_session() feeds it a
// recorded session, and SessionTree carries the result to the reports.
#pragma once

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analyzer/dump_reader.h"
#include "analyzer/profile.h"
#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

// Runs fn(0..n-1) on a small worker pool: the caller plus up to
// hardware_concurrency - 1 threads, each taking the next index.
template <typename F>
void run_parallel(usize n, F&& fn) {
  u32 hw = std::thread::hardware_concurrency();
  usize workers = std::min<usize>(hw == 0 ? 1 : hw, n);
  if (workers <= 1) {
    for (usize i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<usize> next{0};
  auto work = [&] {
    for (usize i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (usize w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
}

// One shard's reconstruction. Feed it the shard's stream in order, in as
// many spans as it arrives in; the per-thread state carries across spans.
//
// A Sink provides:
//   using Handle = ...;                  // names an open frame
//   static constexpr Handle kRoot;       // the parent of a thread's root frame
//   Handle open(u64 tid, u64 method, u64 start, Handle parent);
//   void close(Handle h, u64 end, u64 inclusive, u64 exclusive,
//              u64 children, bool complete);
// Frames close callee first, and `children` is the summed inclusive time
// of the frame's closed callees.
template <typename Sink>
class ShardFold {
 public:
  using Handle = typename Sink::Handle;

  void feed(const LogEntry* entries, u64 n) {
    recon_.entries += n;
    // Threads interleave in batches, so the previous entry's thread is
    // usually this one's: look the map up only when the tid changes.
    ThreadState* t = nullptr;
    u64 tid = 0;
    for (u64 i = 0; i < n; ++i) {
      const LogEntry& e = entries[i];
      // Tombstones: all-zero slots a writer reserved (the tail moved past
      // them) but never filled because it died between the fetch-and-add
      // and the stores. As a call they would invent a phantom invocation of
      // method 0 on thread 0.
      if (e.kind_and_counter == 0 && e.addr == 0 && e.tid == 0 &&
          e.reserved == 0) {
        ++recon_.tombstones;
        continue;
      }
      if (t == nullptr || e.tid != tid) {
        tid = e.tid;
        t = &threads_[tid];
      }
      t->last_counter = e.counter();

      if (e.kind() == EventKind::kCall) {
        Handle parent = t->open.empty() ? Sink::kRoot : t->open.back().handle;
        t->open.push_back(
            Frame{e.addr, e.counter(), 0, sink.open(tid, e.addr, e.counter(), parent)});
        continue;
      }

      // Return: close the matching frame. The common case is the top of
      // the stack; a mismatch means enters were dropped (filtering, log
      // overflow) and is repaired by unwinding to the nearest matching
      // frame. Stray if the stack is empty, mismatched if nothing matches.
      if (t->open.empty()) {
        ++recon_.stray_returns;
        continue;
      }
      usize match = t->open.size();
      for (usize k = t->open.size(); k-- > 0;) {
        if (t->open[k].method == e.addr) {
          match = k;
          break;
        }
      }
      if (match == t->open.size()) {
        ++recon_.mismatched_returns;
        continue;
      }
      close_above(*t, match, e.counter(), true);
    }
  }

  // Closes every still-open frame at its thread's last counter, flagged
  // incomplete: the log ended before the return.
  void close_all() {
    for (auto& [tid, t] : threads_) {
      (void)tid;
      close_above(t, 0, t.last_counter, false);
    }
  }

  const ReconstructionStats& recon() const { return recon_; }
  u64 thread_count() const { return threads_.size(); }

  Sink sink;

 private:
  struct Frame {
    u64 method = 0;
    u64 start = 0;
    u64 children = 0;  // summed inclusive time of closed callees
    Handle handle{};
  };
  struct ThreadState {
    std::vector<Frame> open;
    u64 last_counter = 0;
  };

  // Closes t's open frames above depth `keep`, top down, at `end_counter`.
  // A return (complete) unwinds every frame above the one it matches; the
  // end of the log closes each frame incomplete.
  void close_above(ThreadState& t, usize keep, u64 end_counter, bool complete) {
    while (t.open.size() > keep) {
      Frame f = t.open.back();
      t.open.pop_back();
      // Clamp against a non-monotonic counter: a broken or tampered time
      // source yields zero durations, not u64 underflow.
      u64 end = std::max(end_counter, f.start);
      u64 incl = end - f.start;
      u64 excl = f.children <= incl ? incl - f.children : 0;
      sink.close(f.handle, end, incl, excl, f.children, complete);
      // The frame below is still open (pops go top-down).
      if (!t.open.empty()) t.open.back().children += incl;
      if (!complete) {
        ++recon_.incomplete;
      } else if (t.open.size() != keep) {
        ++recon_.unwound_frames;
      }
    }
  }

  std::map<u64, ThreadState> threads_;  // ordered: closure order is fixed
  ReconstructionStats recon_;
};

// The aggregate of every closed frame of one path-tree node.
struct NodeAgg {
  u64 count = 0;
  u64 inclusive_total = 0;
  u64 exclusive_total = 0;
  u64 min_inclusive = ~0ull;
  u64 max_inclusive = 0;

  void record(u64 inclusive, u64 exclusive) {
    ++count;
    inclusive_total += inclusive;
    exclusive_total += exclusive;
    min_inclusive = std::min(min_inclusive, inclusive);
    max_inclusive = std::max(max_inclusive, inclusive);
  }
  void add(const NodeAgg& o) {
    count += o.count;
    inclusive_total += o.inclusive_total;
    exclusive_total += o.exclusive_total;
    min_inclusive = std::min(min_inclusive, o.min_inclusive);
    max_inclusive = std::max(max_inclusive, o.max_inclusive);
  }
};

// One distinct root-to-frame path: the path of `parent` plus a call of
// `method`.
struct PathNode {
  u64 method = 0;
  u32 parent = 0;
  NodeAgg agg;
};

// The distinct paths of a shard or a session, each with the aggregate of
// its closed frames. Node ids grow from parent to child; node 0 is the
// root, which is no frame. As a fold sink its handle is the node id, so
// closing a frame updates one node instead of hashing a path string.
class PathTree {
 public:
  using Handle = u32;
  static constexpr Handle kRoot = 0;

  PathTree() : nodes_(1) {}

  // The node for a call of `method` below `parent`, created on first sight.
  // Runs once per call entry, so the table stays one flat array.
  u32 child(u32 parent, u64 method) {
    if (2 * nodes_.size() >= slots_.size()) grow();
    usize mask = slots_.size() - 1;
    for (usize at = slot_of(parent, method, mask);; at = (at + 1) & mask) {
      Slot& slot = slots_[at];
      if (slot.node == 0) {
        slot = Slot{method, parent, static_cast<u32>(nodes_.size())};
        nodes_.push_back(PathNode{method, parent, NodeAgg{}});
        return slot.node;
      }
      if (slot.method == method && slot.parent == parent) return slot.node;
    }
  }

  Handle open(u64, u64 method, u64, Handle parent) { return child(parent, method); }
  void close(Handle h, u64, u64 inclusive, u64 exclusive, u64, bool) {
    nodes_[h].agg.record(inclusive, exclusive);
  }

  std::vector<PathNode>& nodes() { return nodes_; }
  const std::vector<PathNode>& nodes() const { return nodes_; }

 private:
  // Open-addressing (parent, method) -> node table, at most half full.
  struct Slot {
    u64 method = 0;
    u32 parent = 0;
    u32 node = 0;  // 0 = empty: the root is nobody's child
  };
  static usize slot_of(u32 parent, u64 method, usize mask) {
    u64 h = (method + parent * 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    return static_cast<usize>(h ^ (h >> 31)) & mask;
  }
  void grow();

  std::vector<PathNode> nodes_;
  std::vector<Slot> slots_;
};

// A session's path tree with what its reports need besides it: the names
// its method ids resolve through (resolve_name), the tick rate and the
// reconstruction health. StreamAnalyzer::finish_tree() and
// Profile::path_tree() both build one; the aggregate every table report
// reads is MergeableProfile::from_tree() of it.
struct SessionTree {
  PathTree tree;
  std::unordered_map<u64, std::string> symbols;
  double ns_per_tick = 0.0;
  ReconstructionStats recon;
  u64 thread_count = 0;
};

// A session tree's method names, each distinct id resolved once.
class MethodNames {
 public:
  explicit MethodNames(const SessionTree& t) : symbols_(t.symbols) {}
  const std::string& operator()(u64 method) {
    auto [it, fresh] = names_.try_emplace(method);
    if (fresh) it->second = resolve_name(symbols_, method);
    return it->second;
  }

 private:
  const std::unordered_map<u64, std::string>& symbols_;
  std::unordered_map<u64, std::string> names_;
};

// Materializes every Invocation, in call order per shard. Its handle is
// the invocation's index.
struct InvocationSink {
  using Handle = u64;
  static constexpr Handle kRoot = ~0ull;

  Handle open(u64 tid, u64 method, u64 start, Handle parent) {
    Invocation inv;
    inv.method = method;
    inv.tid = tid;
    inv.start = start;
    if (parent != kRoot) {
      Invocation& p = invocations[parent];
      inv.depth = p.depth + 1;
      inv.parent = static_cast<i64>(parent);
      ++p.calls_made;
    }
    invocations.push_back(inv);
    return invocations.size() - 1;
  }
  void close(Handle h, u64 end, u64, u64, u64 children, bool complete) {
    Invocation& inv = invocations[h];
    inv.end = end;
    inv.children = children;
    inv.complete = complete;
  }

  std::vector<Invocation> invocations;
};

// One dump's deduplicated spans, at most one per shard, each a view valid
// only for the call; dumps arrive in session order.
class SpanConsumer {
 public:
  virtual ~SpanConsumer() = default;
  virtual void consume(std::span<const ShardSpan> spans) = 0;
};

// One ShardFold per shard, grown on demand.
template <typename Sink>
class SessionFold final : public SpanConsumer {
 public:
  void feed(u32 shard, const LogEntry* entries, u64 n) {
    reserve(static_cast<usize>(shard) + 1);
    shards_[shard]->feed(entries, n);
  }

  // The spans name distinct shards, so they fold in parallel.
  void consume(std::span<const ShardSpan> spans) override {
    for (const ShardSpan& sp : spans) reserve(static_cast<usize>(sp.shard) + 1);
    run_parallel(spans.size(), [&](usize i) {
      shards_[spans[i].shard]->feed(spans[i].entries, spans[i].n);
    });
  }

  // Closes every shard's open frames (incomplete) and sums the shards'
  // stats.
  ReconstructionStats close_all() {
    ReconstructionStats r;
    for (auto& sh : shards_) {
      sh->close_all();
      r.add(sh->recon());
    }
    return r;
  }

  // tid % shard_count confines a thread to one shard, so the per-shard
  // thread counts are disjoint and sum exactly.
  u64 thread_count() const {
    u64 n = 0;
    for (const auto& sh : shards_) n += sh->thread_count();
    return n;
  }

  // The shards' sinks, in shard order.
  template <typename F>
  void for_each_sink(F&& fn) {
    for (auto& sh : shards_) fn(sh->sink);
  }

 private:
  void reserve(usize n) {
    while (shards_.size() < n) shards_.push_back(std::make_unique<ShardFold<Sink>>());
  }

  std::vector<std::unique_ptr<ShardFold<Sink>>> shards_;
};

// Feeds every shard's window of a live log, oldest first: first every
// window's first segment span, then the second spans of the windows that
// wrap, so each batch names distinct shards.
void feed_log(const ProfileLog& log, SpanConsumer& out);

// What walk_session found besides the entries.
struct SessionInfo {
  std::unordered_map<u64, std::string> symbols;  // "<prefix>.sym", if any
  double ns_per_tick = 0.0;
};

// Walks the session recorded at `prefix` into `out`. A spill session
// (detected by "<prefix>.seg.0000") is read one chunk file ahead on a
// reader thread, stitched by SpillStitcher, and finished by the optional
// residue dump "<prefix>.log"; any other session is the dump
// "<prefix>.log". A torn trailing chunk ends the sequence; a corrupt chunk
// in the middle fails the walk. On failure returns nullopt and, if `error`
// is given, says why.
std::optional<SessionInfo> walk_session(const std::string& prefix,
                                        SpanConsumer& out,
                                        std::string* error = nullptr);

}  // namespace teeperf::analyzer
