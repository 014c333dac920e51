// The offline analyzer (§II-B, stage #3).
//
// Reads a recorded log (from file or live from a ProfileLog), groups call
// and return entries per thread, reconstructs every call stack, and derives
// per-invocation and per-method timing. The paper implements this stage in
// Python/pandas; here it is C++ with an equivalent typed query API
// (query.h), which keeps the whole reproduction in one language and makes
// the analyzer testable alongside the recorder.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

// Shared name resolution: the explicit symbol map first, then the live
// registry (in-process analysis without a .sym file), then hex. Used by
// Profile::name and the streaming analyzer (stream.h) so both pipelines
// symbolize identically — the differential tests depend on it.
std::string resolve_name(const std::unordered_map<u64, std::string>& symbols,
                         u64 method);

// One reconstructed function execution.
struct Invocation {
  u64 method = 0;       // function address / registered id
  u64 tid = 0;
  u64 start = 0;        // counter at entry
  u64 end = 0;          // counter at exit (or last counter seen, if truncated)
  u64 children = 0;     // sum of direct children's inclusive ticks
  u32 depth = 0;        // 0 = thread root
  i64 parent = -1;      // index into invocations(); -1 for roots
  u64 calls_made = 0;   // number of direct callees
  bool complete = true; // false when the log ended before the return

  u64 inclusive() const { return end - start; }
  // "Real time spent in the method" (§II-B stage #3): inclusive minus time
  // attributed to callees.
  u64 exclusive() const {
    u64 inc = inclusive();
    return children <= inc ? inc - children : 0;
  }
};

// Defects found while reconstructing; a healthy log has all zeros except
// possibly incomplete (threads still running when the log was dumped).
struct ReconstructionStats {
  u64 stray_returns = 0;     // return with an empty stack
  u64 mismatched_returns = 0;  // return address not on the stack
  u64 unwound_frames = 0;    // frames force-closed to match a return
  u64 incomplete = 0;        // invocations open at end of log
  u64 tombstones = 0;        // all-zero slots: reserved, never filled (dead writer)
  u64 entries = 0;           // log entries consumed
};

struct MethodStats {
  u64 method = 0;
  u64 count = 0;
  u64 inclusive_total = 0;  // note: recursive methods count nested time twice
  u64 exclusive_total = 0;
  u64 min_inclusive = ~0ull;
  u64 max_inclusive = 0;
  double mean_inclusive() const {
    return count ? static_cast<double>(inclusive_total) / static_cast<double>(count) : 0;
  }
};

// A caller→callee edge in the dynamic call graph.
struct CallEdge {
  u64 caller = 0;  // 0 with is_root=true means "thread root"
  u64 callee = 0;
  bool from_root = false;
  u64 count = 0;
  u64 inclusive_total = 0;
};

// Consistency findings from validate(); a clean trace has no entries.
struct ValidationIssue {
  enum class Kind {
    kNonMonotonicCounter,  // a thread's counter went backwards
    kUnbalancedThread,     // calls != returns for a thread at end of log
    kZeroAddress,          // an entry with address 0
  };
  Kind kind;
  u64 tid = 0;
  u64 entry_index = 0;
  std::string detail;
};

class Profile {
 public:
  // Loads "<prefix>.log" + "<prefix>.sym" written by Recorder::dump().
  // Sessions recorded with --spill are detected automatically (by the
  // presence of "<prefix>.seg.0000") and routed through load_spill().
  static std::optional<Profile> load(const std::string& prefix);

  // Loads a spill session: stitches the drainer's chunk files
  // ("<prefix>.seg.NNNN", in sequence order) plus the final residue dump
  // ("<prefix>.log", optional — a session killed before dump still loads)
  // into one profile. Per-thread order is preserved because shards drain
  // in order; the absolute start cursor every chunk records per window is
  // used to skip the overlap a drainer crash between persist and
  // cursor-advance leaves behind. A torn trailing chunk is tolerated (its
  // window was never marked drained, so the residue re-covers it); a bad
  // chunk in the middle of the sequence is corruption and fails the load.
  static std::optional<Profile> load_spill(const std::string& prefix);

  // Builds from serialized dump bytes already in memory (the fuzz runner's
  // entry point, and what load() uses underneath). Never trusts the bytes:
  // the header is copied out (no alignment or atomic assumptions on the
  // buffer), entry count is clamped to what the buffer actually holds, and
  // a non-finite ns_per_tick is discarded. nullopt on a bad magic/version
  // or a sub-header buffer.
  static std::optional<Profile> load_bytes(
      std::string_view log_bytes,
      std::unordered_map<u64, std::string> symbols = {});

  // Loads several dumps into one profile — the multi-process case the log
  // header's PID field exists for (§II-B: "differentiate multiple runs or
  // multiple application[s]"). Thread ids are namespaced per input
  // (pid<<32 | tid) so reconstructions cannot interleave. Inputs that fail
  // to load are skipped; returns nullopt only if none load.
  static std::optional<Profile> load_many(const std::vector<std::string>& prefixes);

  // Builds directly from a live in-memory log (no file round trip).
  static Profile from_log(const ProfileLog& log,
                          std::unordered_map<u64, std::string> symbols,
                          double ns_per_tick = 0.0);

  // Builds from a bare entry window already copied out of a log — the
  // live-monitoring path (teeperf_monitord's rolling flame-graph snapshots
  // reconstruct bounded windows without adopting the whole region).
  static Profile from_entries(const LogEntry* entries, u64 n,
                              std::unordered_map<u64, std::string> symbols,
                              double ns_per_tick = 0.0);

  const std::vector<Invocation>& invocations() const { return invocations_; }
  const ReconstructionStats& recon_stats() const { return recon_; }
  double ns_per_tick() const { return ns_per_tick_; }
  u64 thread_count() const { return thread_count_; }

  // Human name for a method id (falls back to hex).
  std::string name(u64 method) const;

  // Per-method aggregation, sorted by exclusive time descending — the
  // "presented in a sorted way to the programmer" report source.
  std::vector<MethodStats> method_stats() const;

  // Dynamic call-graph edges, sorted by count descending.
  std::vector<CallEdge> call_edges() const;

  // Semicolon-joined stack → total exclusive ticks, the Flame Graph input
  // ("folded stacks"). Stacks are per-invocation paths root→leaf.
  std::vector<std::pair<std::string, u64>> folded_stacks() const;

  // The single most expensive stack (by exclusive ticks attributed to that
  // exact path) — "the most frequent code path" the paper uses flame graphs
  // to find, as a direct query. Empty path when there are no invocations.
  std::pair<std::string, u64> hottest_stack() const;

  double ticks_to_ns(u64 ticks) const {
    return ns_per_tick_ > 0 ? static_cast<double>(ticks) * ns_per_tick_
                            : static_cast<double>(ticks);
  }

  // Pre-reconstruction consistency check of a raw log: per-thread counter
  // monotonicity, call/return balance, null addresses. Run it before
  // trusting a log from an unfamiliar recorder build.
  static std::vector<ValidationIssue> validate(const ProfileLog& log);
  static std::vector<ValidationIssue> validate(const LogEntry* entries, u64 n);
  // File-level variant for dumps (which persist only the written entries).
  // nullopt when the file is missing or malformed.
  static std::optional<std::vector<ValidationIssue>> validate_file(
      const std::string& prefix);

 private:
  friend class InvocationTable;

  static Profile build(const LogEntry* entries, u64 n,
                       std::unordered_map<u64, std::string> symbols,
                       double ns_per_tick);

  // v2 sharded logs: reconstruct each shard's window concurrently (a thread
  // is confined to one shard, so call-stack reconstruction never crosses a
  // window boundary), then merge in shard order. The merge rebases parent
  // indices only — method ids and tids are shared across shards, unlike
  // load_many's cross-process rekeying — so the result is deterministic
  // regardless of worker scheduling.
  static Profile build_sharded(std::span<const std::span<const LogEntry>> shards,
                               std::unordered_map<u64, std::string> symbols,
                               double ns_per_tick);

  std::vector<Invocation> invocations_;
  std::unordered_map<u64, std::string> symbols_;
  ReconstructionStats recon_;
  double ns_per_tick_ = 0.0;
  u64 thread_count_ = 0;
};

}  // namespace teeperf::analyzer
