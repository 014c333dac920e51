// The recorder (§II-B, stage #2): sets up the shared-memory log, runs the
// counter, serves the session's telemetry and persists the log (plus a
// symbol file) for the offline analyzer. The one session owner: in-process
// sessions attach() it, and the teeperf_record wrapper serve()s it for an
// application that runs in a child process.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/session_registry.h"
#include "common/shm.h"
#include "common/types.h"
#include "core/counter.h"
#include "core/filter.h"
#include "core/log_format.h"
#include "obs/session.h"
#include "obs/watchdog.h"

namespace teeperf {

struct RecorderOptions {
  // Log capacity. 1M entries = 32 MiB of untrusted host memory.
  u64 max_entries = 1ull << 20;

  // Shard count (DESIGN.md §8), resolved by pick_shard_count: -1 picks a
  // power of two near the hardware concurrency (clamped to [1, 64], and
  // reduced until every shard holds at least 1024 entries, so tiny test
  // logs degrade to one shard). 0 means one shard: the paper's single
  // shared tail. 1..kMaxLogShards forces that many shards.
  i32 shards = -1;

  // Time source. kTsc by default: on the single-core CI machine a software
  // counter thread starves the workload (see counter.h); pass kSoftware to
  // reproduce the paper's portable configuration.
  CounterMode counter_mode = CounterMode::kTsc;

  // When using kSoftware: sched_yield after this many increments (0 = the
  // paper's pure tight loop, appropriate when a spare core exists).
  u64 software_counter_yield = 4096;

  // Replicated trusted time (DESIGN.md §13), kSoftware only: run this many
  // counter replicas on distinct cores, each with a cache-line-isolated shm
  // word, plus a detector that cross-checks them and fails over when the
  // elected primary stalls or jumps backwards. 0 and 1 both run the single
  // counter thread with no replica block; values are clamped to
  // kMaxCounterReplicas. Ignored for kTsc / kSteadyClock (those sources
  // have nothing to replicate).
  u32 counter_replicas = 0;

  // Start with measurement active; flags can be toggled at runtime.
  bool start_active = true;

  // Ring mode: when the log fills, overwrite the oldest entries instead of
  // dropping new ones — long-running sessions keep the most recent window.
  bool ring_buffer = false;

  // Spill-drain mode (DESIGN.md §10): a host-side drainer (drain::Drainer,
  // owned by the embedding tool — teeperf_record — not by the Recorder)
  // continuously consumes published windows and writers reclaim the space,
  // so sessions are unbounded without ring-mode data loss. Excludes
  // ring_buffer; create() fails on the conflicting combination.
  bool spill_drain = false;
  bool record_calls = true;
  bool record_returns = true;

  // Named POSIX shared memory when set; anonymous shared mapping otherwise.
  // Named shm is the cross-process path. The sentinel "auto" picks a fresh
  // collision-free session name "/teeperf.<pid>.<nonce>.log" (the
  // multi-session scheme session_registry.h documents); an explicit name is
  // used verbatim. The telemetry region lives at the same base with ".obs"
  // (for names not ending in ".log", legacy "<name>.obs").
  std::string shm_name;

  // Named sessions publish a discovery descriptor into the session registry
  // (session_registry.h) so teeperf_monitord / teeperf_stats can find them,
  // and withdraw it on destruction. Off for tests that want invisibility.
  bool publish_session = true;

  // Registry directory override; empty uses $TEEPERF_SESSION_DIR / the
  // per-host default.
  std::string session_dir;

  // Selective profiling filter; must outlive the recorder. May be null.
  const Filter* filter = nullptr;

  // Self-telemetry (src/obs): a shared-memory metrics/events region named
  // "<shm_name>.obs" (anonymous for anonymous sessions) that a host process
  // can scrape live with tools/teeperf_stats, plus a counter-health
  // watchdog thread that runs while the session is attached.
  bool telemetry = true;
  u64 watchdog_interval_ms = 50;
};

// The shard count a log of `max_entries` gets for a requested count: -1
// auto-sizes (RecorderOptions::shards), 0 means 1, larger values clamp to
// kMaxLogShards.
u32 pick_shard_count(i64 requested, u64 max_entries);

// Spill sessions: drainer health fed into the watchdog's log sample. The
// embedding tool owns the drain::Drainer (core sits below drain in the
// layering) and supplies it through a callback.
struct DrainSample {
  u64 lag_entries = 0;
  u64 spilled_bytes = 0;
  u64 drained_entries = 0;
};

class Recorder {
 public:
  // Creates the shared memory and formats the log. Null on failure.
  static std::unique_ptr<Recorder> create(const RecorderOptions& options);

  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Installs the runtime session in this process and serves it:
  // runtime::attach plus serve(). False if another session is already
  // attached.
  bool attach();

  // Serves a session whose application runs in another process (the
  // teeperf_record wrapper's child, which attaches through TEEPERF_SHM):
  // starts the counter service, installs the obs bridge (live telemetry,
  // external fault arming) and starts the watchdog, which journals the
  // attach and samples the counter and the log. `drain` adds the drainer's
  // health to a spill session's log sample. A non-empty `dump_prefix` is
  // republished in the session descriptor, so monitors find the
  // "<prefix>.sym" the application writes at exit.
  void serve(const std::string& dump_prefix = {},
             std::function<DrainSample()> drain = {});

  // Ends what attach()/serve() started: the runtime session, the watchdog
  // (journaling the detach) and the counter, whose closed calibration is
  // stored in the header for whatever is persisted after it.
  void detach();

  // Dynamic de/activation (§II-B: flags are changed atomically while the
  // application executes). Toggles are journaled as telemetry events.
  void start();
  void stop();

  ProfileLog& log() { return log_; }
  const ProfileLog& log() const { return log_; }

  struct Stats {
    u64 entries = 0;
    u64 dropped = 0;
    u64 capacity = 0;
    u64 attempted = 0;       // appends tried, including dropped/wrapped
    u64 torn_tail = 0;       // tombstone slots found at the written tail
    u32 shards = 0;          // shard directory size (>= 1 once created)
    bool counter_stalled = false;  // the counter service's live verdict
                                   // (false until a watchdog window)
    u32 counter_replicas = 0;      // replica block size (0 = single counter)
    u64 counter_failovers = 0;     // primary elections since attach
    u64 counter_backjumps = 0;     // replica words seen moving backwards
  };
  Stats stats() const;

  // The live telemetry region (null when options.telemetry is false, or
  // when the region could not be created).
  obs::SelfTelemetry* telemetry() { return telemetry_.get(); }

  // The session's time source; the wrapper's --freeze-counter-after-ms
  // stops it early.
  CounterService& counter() { return *counter_; }

  // The log segment's shm name ("" for an anonymous log); "auto" resolved.
  const std::string& shm_name() const { return options_.shm_name; }

  // The registry key this session published under ("" when unpublished —
  // anonymous sessions, publish_session=false, or a failed publish).
  const std::string& session_name() const { return session_.name; }

  // Writes "<prefix>.log" (raw header + entries, with the counter
  // service's ns_per_tick stored into the header), the telemetry sidecars
  // "<prefix>.health" and "<prefix>.events.jsonl", and, when this process
  // was attached, "<prefix>.sym" (registered symbols plus dladdr
  // resolutions of raw addresses found in the log); a served application
  // writes its own .sym. Returns false on I/O failure.
  bool dump(const std::string& prefix);

 private:
  Recorder() = default;

  RecorderOptions options_;
  session_registry::SessionDescriptor session_;  // empty when unpublished
  std::string session_dir_;
  SharedMemoryRegion shm_;
  ProfileLog log_;
  std::unique_ptr<obs::SelfTelemetry> telemetry_;
  // Lives as long as the recorder, so dump() after detach() keeps the
  // finished run's calibration.
  std::unique_ptr<CounterService> counter_;
  std::unique_ptr<obs::Watchdog> watchdog_;
  bool serving_ = false;   // serve() until detach()
  bool attached_ = false;  // attach() until detach()
  bool symbolize_ = false;  // attach() ever ran: dump() writes the .sym
};

}  // namespace teeperf
