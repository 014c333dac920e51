// Counter-health watchdog (Triad's observation, PAPERS.md: untrusted time
// sources drift and stall, so a TEE profiler must actively health-check its
// clock). A background thread re-measures ns/tick for the session's counter
// against CLOCK_MONOTONIC every interval, detects stalls (the counter word
// not advancing — e.g. the software-counter thread descheduled or dead) and
// drift beyond a threshold from the calibrated baseline, publishes gauges,
// and journals alarm events.
//
// The watchdog reads the counter and the log through callbacks, so it works
// for any CounterMode without depending on core (the recorder supplies
// `read_counter(mode, header)` as the callback).
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

struct WatchdogOptions {
  u64 interval_ms = 50;
  // Consecutive zero-delta windows before a stall alarm is raised.
  u32 stall_windows = 2;
  // Relative ns/tick deviation from the calibrated baseline that counts as
  // drift. Generous by default: software-counter rates legitimately wobble
  // with scheduling; the watchdog flags sustained gross deviation, not jitter.
  double drift_threshold = 0.5;
  // Healthy windows averaged into the ns/tick baseline before drift
  // detection arms.
  u32 calibration_windows = 4;
};

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

// Replicated-counter health sample, provided by the owner from
// ReplicatedCounter::health() (DESIGN.md §13). Published verbatim as the
// counter.replica.* / counter.failover gauges.
struct ReplicaSample {
  u32 replicas = 0;
  u32 primary = 0;
  u64 failovers = 0;
  u64 backjumps = 0;
  u32 stalled_replicas = 0;
  u64 drift_permille = 0;
};

class Watchdog {
 public:
  // `read_counter` returns the session counter's current value; `mode_name`
  // labels events ("software", "tsc", ...). Both metrics and journal must
  // outlive the watchdog.
  Watchdog(MetricsRegistry* registry, EventJournal* journal,
           std::function<u64()> read_counter, std::string mode_name,
           WatchdogOptions options = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Also publish log occupancy / entry-rate / wrap metrics each tick.
  // Must be called before start().
  void watch_log(std::function<LogSample()> sample_log);

  // Also publish replicated-counter health gauges each tick (sessions with
  // counter_replicas > 0). Must be called before start().
  void watch_replicas(std::function<ReplicaSample()> sample_replicas);

  void start();
  void stop();
  bool running() const { return running_; }

  // Exposed for tests: the most recent measured ns/tick (0 before the first
  // healthy window) and whether the counter is currently considered stalled.
  double ns_per_tick() const { return ns_per_tick_; }
  bool stalled() const { return stalled_; }
  u64 ticks() const { return wd_ticks_.value(); }
  // Counter-word backjumps observed (each journaled as kCounterBackjump).
  u64 backjumps() const { return backjump_events_.value(); }

 private:
  void run();
  void observe_counter(u64 now_ns);
  void observe_log();
  void observe_replicas();

  MetricsRegistry* registry_;
  EventJournal* journal_;
  std::function<u64()> read_counter_;
  std::string mode_name_;
  WatchdogOptions options_;
  std::function<LogSample()> sample_log_;
  std::function<ReplicaSample()> sample_replicas_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;

  // Counter-health state (watchdog thread only).
  u64 last_counter_ = 0;
  u64 last_ns_ = 0;
  u64 stall_start_ns_ = 0;
  u32 zero_windows_ = 0;
  bool stalled_ = false;
  bool drifting_ = false;
  double ns_per_tick_ = 0.0;
  double baseline_ = 0.0;
  u32 baseline_samples_ = 0;

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
