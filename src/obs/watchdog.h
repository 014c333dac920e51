// Session watchdog (Triad's observation, PAPERS.md: untrusted time sources
// drift and stall, so a TEE profiler must actively health-check its clock).
// A background thread asks the session's counter service for one health
// sample per interval, publishes the service's verdicts as gauges and
// journal events, and samples log occupancy and drainer health. It does no
// counter arithmetic of its own: the service's classifier (core/counter.h)
// decides what a window means (DESIGN.md §7).
//
// The watchdog reads the counter and the log through callbacks, so obs does
// not depend on core.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace teeperf::obs {

// Occupancy/rate sample of the profiling log, provided by the owner.
struct LogSample {
  u64 tail = 0;      // entries attempted (monotonic; summed over shards)
  u64 capacity = 0;  // max entries
  bool active = false;
  bool ring = false;
  u64 dropped = 0;   // appends refused: the per-shard shm counters summed,
                     // so visible cross-process
  // Spill-drain sessions (log_flags::kSpillDrain): drainer health, filled
  // from drain::Drainer::stats() by the owner. `drained_entries` is
  // monotonic — the watchdog flags a stall when it stops advancing while
  // lag is nonzero.
  bool spill = false;
  u64 drain_lag = 0;            // published-but-unconsumed entries
  u64 drain_spilled_bytes = 0;  // chunk bytes persisted so far
  u64 drained_entries = 0;      // entries consumed so far
  // Each shard's raw tail, in directory order. Published as
  // log.shard.<i>.tail gauges so a scraper can spot one
  // hot thread saturating its shard while the log as a whole looks empty.
  std::vector<u64> shard_tails;
};

// What one window of a counter word showed, as classified by the counter
// service (core/counter.h, CounterClassifier).
enum class CounterVerdict : u8 {
  kAdvanced,    // the word moved forward
  kZeroWindow,  // the word did not move (not, or no longer newly, a stall)
  kStalled,     // the window that completed a stall: still for k windows
  kBackjump,    // the word moved backwards; excluded from calibration
};

// The counter service's health sample (DESIGN.md §7, §13): one classified
// window of the probe-visible word plus the replica block's state. The
// watchdog publishes it verbatim.
struct CounterSample {
  CounterVerdict verdict = CounterVerdict::kZeroWindow;
  bool recovered = false;    // this window ended a stall
  bool drift_began = false;  // this window started a drift episode
  bool stalled = false;      // live state after this window
  bool drifting = false;
  u64 value = 0;             // the word at the window's end
  u64 previous = 0;          // the word at the window's start
  u64 stall_ns = 0;          // length of the stall this window is in or ended
  double window_ns_per_tick = 0.0;  // kAdvanced windows; 0 otherwise
  double deviation = 0.0;    // |window - calibrated| / calibrated, once armed
  double ns_per_tick = 0.0;  // the calibrator's Σdt/Σdc; 0 before any tick

  // Replica block (DESIGN.md §13); replicas == 0 for a single counter.
  u32 replicas = 0;
  u32 primary = 0;           // currently elected replica index
  u64 failovers = 0;         // elections after the initial one
  u64 backjumps = 0;         // replica words observed moving backwards
  u32 stalled_replicas = 0;  // replicas currently stalled
  u64 drift_permille = 0;    // max replica window deviation, in permille
};

class Watchdog {
 public:
  // `sample_counter` classifies one window of the session's counter and
  // returns the service's health sample (null: no counter to watch);
  // `mode_name` labels events ("software", "tsc", ...). Both metrics and
  // journal must outlive the watchdog.
  Watchdog(MetricsRegistry* registry, EventJournal* journal,
           std::function<CounterSample()> sample_counter,
           std::string mode_name, u64 interval_ms);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Also publish log occupancy / entry-rate / wrap metrics each tick.
  // Must be called before start().
  void watch_log(std::function<LogSample()> sample_log);

  void start();
  void stop();
  bool running() const { return running_; }

  // Completed watchdog ticks.
  u64 ticks() const { return wd_ticks_.value(); }

  // One tick's publishing, run by the watchdog thread; exposed so tests can
  // publish a scripted sample without a thread.
  void publish(const CounterSample& s);

 private:
  void run();
  void observe_log();

  MetricsRegistry* registry_;
  EventJournal* journal_;
  std::function<CounterSample()> sample_counter_;
  std::string mode_name_;
  u64 interval_ms_;
  std::function<LogSample()> sample_log_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;

  // Log-watch state.
  u64 last_tail_ = 0;
  u64 last_tail_ns_ = 0;
  u64 wraps_seen_ = 0;
  bool saturation_reported_ = false;
  double peak_rate_ = 0.0;

  // Drain-watch state (spill sessions only; gauges register lazily on the
  // first spill sample so plain sessions don't carry drain.* slots).
  bool drain_gauges_ready_ = false;
  u64 last_drained_ = 0;
  u32 drain_idle_windows_ = 0;
  bool drain_stalled_ = false;

  // Replica gauges register lazily on the first sample with a replica block.
  bool replica_gauges_ready_ = false;

  // Published metrics.
  Counter wd_ticks_, stall_events_, drift_events_, backjump_events_;
  Gauge g_ns_per_tick_, g_stalled_, g_drifting_;
  Gauge g_tail_, g_occupancy_, g_rate_, g_peak_rate_, g_dropped_, g_wraps_,
      g_active_;
  Gauge g_drain_lag_, g_drain_spilled_, g_drain_stall_;
  Gauge g_replicas_, g_replica_primary_, g_replica_drift_, g_replica_stalled_,
      g_failover_;
  Histogram h_ns_per_tick_;
};

}  // namespace teeperf::obs
