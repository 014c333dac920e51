// The offline analyzer (§II-B, stage #3).
//
// Reads a recorded session (from files or live from a ProfileLog), runs the
// reconstruction engine (fold.h) with the invocation sink, and keeps every
// reconstructed Invocation for the invocation-level queries (query.h) and
// reports. Its aggregates roll up from path_tree(), the same session tree
// the streaming analyzer (stream.h) builds without any Invocation. The
// paper implements this stage in Python/pandas; here it is C++ with an
// equivalent typed query API (query.h), which keeps the whole reproduction
// in one language and makes the analyzer testable alongside the recorder.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

struct SessionTree;
struct InvocationSink;
template <typename Sink>
class SessionFold;

// Shared name resolution: the explicit symbol map first, then the live
// registry (in-process analysis without a .sym file), then hex. Every
// report names methods through it.
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

  bool operator==(const Invocation&) const = default;
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
  bool operator==(const ReconstructionStats&) const = default;
  void add(const ReconstructionStats& o) {
    stray_returns += o.stray_returns;
    mismatched_returns += o.mismatched_returns;
    unwound_frames += o.unwound_frames;
    incomplete += o.incomplete;
    tombstones += o.tombstones;
    entries += o.entries;
  }
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
  // Loads the session recorded at `prefix` through the session walker
  // (fold.h): "<prefix>.log" + "<prefix>.sym" written by Recorder::dump(),
  // or — detected by "<prefix>.seg.0000" — a spill session's chunk files
  // in sequence order plus the optional residue "<prefix>.log" (a session
  // killed before dump still loads). Overlap a drainer crash left behind is
  // skipped; a torn trailing chunk is tolerated; a bad chunk in the middle
  // of the sequence is corruption and fails the load.
  static std::optional<Profile> load(const std::string& prefix);

  // Builds from serialized dump bytes already in memory (the fuzz runner's
  // entry point). Never trusts the bytes:
  // the header is copied out (no alignment or atomic assumptions on the
  // buffer), entry count is clamped to what the buffer actually holds, and
  // a non-finite ns_per_tick is discarded. nullopt on a bad magic/version
  // or a sub-header buffer.
  static std::optional<Profile> load_bytes(
      std::string_view log_bytes,
      std::unordered_map<u64, std::string> symbols = {});

  // Builds directly from a live in-memory log (no file round trip).
  static Profile from_log(const ProfileLog& log,
                          std::unordered_map<u64, std::string> symbols,
                          double ns_per_tick = 0.0);

  const std::vector<Invocation>& invocations() const { return invocations_; }
  const ReconstructionStats& recon_stats() const { return recon_; }
  double ns_per_tick() const { return ns_per_tick_; }
  u64 thread_count() const { return thread_count_; }

  // Human name for a method id (falls back to hex).
  std::string name(u64 method) const;

  // One path-tree node per distinct root-to-invocation path, each with its
  // invocations' aggregate, plus this profile's names, tick rate and
  // health: the tree StreamAnalyzer::finish_tree() builds for the same
  // session. Every aggregate of the profile — per method, per call edge,
  // per folded stack — is MergeableProfile::from_tree() of it
  // (MergeableProfile::from_profile).
  SessionTree path_tree() const;

  // The aggregate's folded stacks (semicolon-joined path → exclusive
  // ticks, sorted by path) as flame-graph input.
  std::vector<std::pair<std::string, u64>> folded_stacks() const;

  double ticks_to_ns(u64 ticks) const {
    return ns_per_tick_ > 0 ? static_cast<double>(ticks) * ns_per_tick_
                            : static_cast<double>(ticks);
  }

  // Pre-reconstruction consistency check of a raw log: per-thread counter
  // monotonicity, call/return balance, null addresses. Run it before
  // trusting a log from an unfamiliar recorder build.
  // On a live log, entry_index is the entry's position in
  // snapshot_ordered(): shard by shard, each window oldest first.
  static std::vector<ValidationIssue> validate(const ProfileLog& log);
  static std::vector<ValidationIssue> validate(const LogEntry* entries, u64 n);
  // Session-level variant: every entry load() would read, through the
  // session walker, so a spill session's chunks are checked too. Per-thread
  // state carries across spans; entry_index counts entries in feed order
  // (dump by dump, shard by shard). nullopt when the session does not load.
  static std::optional<std::vector<ValidationIssue>> validate_file(
      const std::string& prefix);

 private:
  friend class InvocationTable;

  // Collects a finished fold: closes open frames, then concatenates the
  // shards' invocations in shard order, rebasing parent indices.
  static Profile from_fold(SessionFold<InvocationSink>& fold,
                           std::unordered_map<u64, std::string> symbols,
                           double ns_per_tick);
  std::vector<Invocation> invocations_;
  std::unordered_map<u64, std::string> symbols_;
  ReconstructionStats recon_;
  double ns_per_tick_ = 0.0;
  u64 thread_count_ = 0;
};

}  // namespace teeperf::analyzer
