#include "obs/watchdog.h"

#include <chrono>
#include <cmath>

#include "common/spin.h"
#include "common/stringutil.h"
#include "faultsim/fault.h"
#include "obs/metric_names.h"

namespace teeperf::obs {

// ns/tick is published in picoseconds so sub-nanosecond tick rates (a fast
// software counter on an idle core) survive the integer gauge.
static u64 to_pico(double ns_per_tick) {
  double p = ns_per_tick * 1000.0;
  return p > 0 ? static_cast<u64>(p) : 0;
}

Watchdog::Watchdog(MetricsRegistry* registry, EventJournal* journal,
                   std::function<u64()> read_counter, std::string mode_name,
                   WatchdogOptions options)
    : registry_(registry),
      journal_(journal),
      read_counter_(std::move(read_counter)),
      mode_name_(std::move(mode_name)),
      options_(options) {
  wd_ticks_ = registry_->counter(metric_names::kWatchdogTicks);
  stall_events_ = registry_->counter(metric_names::kWatchdogStallEvents);
  drift_events_ = registry_->counter(metric_names::kWatchdogDriftEvents);
  backjump_events_ = registry_->counter(metric_names::kWatchdogBackjumpEvents);
  g_ns_per_tick_ = registry_->gauge(metric_names::kCounterNsPerTickPico);
  g_stalled_ = registry_->gauge(metric_names::kCounterStalled);
  g_drifting_ = registry_->gauge(metric_names::kCounterDrifting);
  h_ns_per_tick_ = registry_->histogram(metric_names::kCounterNsPerTickPico);
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::watch_log(std::function<LogSample()> sample_log) {
  sample_log_ = std::move(sample_log);
  g_tail_ = registry_->gauge(metric_names::kLogTail);
  g_occupancy_ = registry_->gauge(metric_names::kLogOccupancyPermille);
  g_rate_ = registry_->gauge(metric_names::kLogEntryRatePerS);
  g_peak_rate_ = registry_->gauge(metric_names::kLogEntryRatePeakPerS);
  g_dropped_ = registry_->gauge(metric_names::kLogDropped);
  g_wraps_ = registry_->gauge(metric_names::kLogRingWraps);
  g_active_ = registry_->gauge(metric_names::kLogActive);
}

void Watchdog::watch_replicas(std::function<ReplicaSample()> sample_replicas) {
  sample_replicas_ = std::move(sample_replicas);
  g_replicas_ = registry_->gauge(metric_names::kCounterReplicas);
  g_replica_primary_ = registry_->gauge(metric_names::kCounterReplicaPrimary);
  g_replica_drift_ = registry_->gauge(metric_names::kCounterReplicaDrift);
  g_replica_stalled_ = registry_->gauge(metric_names::kCounterReplicaStalled);
  g_failover_ = registry_->gauge(metric_names::kCounterFailover);
}

void Watchdog::start() {
  if (running_) return;
  stop_requested_ = false;
  last_counter_ = read_counter_ ? read_counter_() : 0;
  last_ns_ = monotonic_ns();
  last_tail_ns_ = last_ns_;
  running_ = true;
  thread_ = std::thread([this] { run(); });
}

void Watchdog::stop() {
  if (!running_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
}

void Watchdog::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, std::chrono::milliseconds(options_.interval_ms));
    if (stop_requested_) break;
    u64 now = monotonic_ns();
    observe_counter(now);
    observe_log();
    observe_replicas();
    // Pick up fault arms published through the obs region by an external
    // controller (see obs/session.cc). No-op unless a bridge is installed.
    fault::Registry::instance().poll_external();
    wd_ticks_.inc();
  }
}

void Watchdog::observe_counter(u64 now_ns) {
  if (!read_counter_) return;
  u64 c = read_counter_();
  if (c < last_counter_) {
    // Backjump: the counter word moved backwards (tampered or wrapped time
    // source). The unsigned delta below used to wrap to ~2^64 here and feed
    // a near-zero ns/tick into the drift baseline, poisoning every later
    // comparison — so this window is excluded from ns/tick and baseline
    // entirely and journaled as its own event class.
    backjump_events_.inc();
    journal_->record(EventType::kCounterBackjump, c, last_counter_,
                     mode_name_);
    if (stalled_) {
      stalled_ = false;
      g_stalled_.set(0);
      journal_->record(EventType::kCounterRecover, c, now_ns - stall_start_ns_,
                       mode_name_);
    }
    zero_windows_ = 0;
    last_counter_ = c;
    last_ns_ = now_ns;
    return;
  }
  u64 dc = c - last_counter_;
  u64 dt = now_ns - last_ns_;
  last_counter_ = c;
  last_ns_ = now_ns;
  if (dt == 0) return;

  if (dc == 0) {
    if (zero_windows_ == 0) stall_start_ns_ = now_ns - dt;
    ++zero_windows_;
    if (!stalled_ && zero_windows_ >= options_.stall_windows) {
      stalled_ = true;
      g_stalled_.set(1);
      stall_events_.inc();
      journal_->record(EventType::kCounterStall, c, now_ns - stall_start_ns_,
                       mode_name_);
    }
    return;
  }

  if (stalled_) {
    stalled_ = false;
    g_stalled_.set(0);
    journal_->record(EventType::kCounterRecover, c, now_ns - stall_start_ns_,
                     mode_name_);
  }
  zero_windows_ = 0;

  ns_per_tick_ = static_cast<double>(dt) / static_cast<double>(dc);
  g_ns_per_tick_.set(to_pico(ns_per_tick_));
  h_ns_per_tick_.add(to_pico(ns_per_tick_));

  if (baseline_samples_ < options_.calibration_windows) {
    // Running mean over the calibration windows.
    baseline_ = (baseline_ * baseline_samples_ + ns_per_tick_) /
                (baseline_samples_ + 1);
    ++baseline_samples_;
    return;
  }
  double deviation = std::abs(ns_per_tick_ - baseline_) / baseline_;
  if (deviation > options_.drift_threshold) {
    if (!drifting_) {
      // One event per drift episode; the gauge carries the live state.
      drifting_ = true;
      g_drifting_.set(1);
      drift_events_.inc();
      journal_->record(EventType::kCounterDrift, to_pico(ns_per_tick_),
                       to_pico(baseline_), mode_name_);
    }
  } else if (drifting_) {
    drifting_ = false;
    g_drifting_.set(0);
  }
}

void Watchdog::observe_log() {
  if (!sample_log_) return;
  LogSample s = sample_log_();
  u64 now = monotonic_ns();
  u64 written = s.tail < s.capacity ? s.tail : s.capacity;
  g_tail_.set(s.tail);
  g_active_.set(s.active ? 1 : 0);
  if (s.capacity > 0) g_occupancy_.set(written * 1000 / s.capacity);
  if (!s.shard_tails.empty()) {
    // Sharded (v2) log: per-shard tails let a scraper spot one hot thread
    // saturating its shard while aggregate occupancy still looks low. Only
    // the first 16 shards get individual gauges (registry space is finite);
    // the aggregate tail above always covers all of them.
    registry_->gauge(metric_names::kLogShards).set(s.shard_tails.size());
    for (usize i = 0; i < s.shard_tails.size() && i < 16; ++i) {
      registry_->gauge(str_format(metric_names::kLogShardTailFmt, i))
          .set(s.shard_tails[i]);
    }
  }
  // The shard drop counters live in the shared region, so the gauge
  // reflects app-side drops even when the watchdog runs in the recorder
  // process.
  if (s.dropped > 0) g_dropped_.set(s.dropped);

  if (now > last_tail_ns_ && s.tail >= last_tail_) {
    double rate = static_cast<double>(s.tail - last_tail_) * 1e9 /
                  static_cast<double>(now - last_tail_ns_);
    g_rate_.set(static_cast<u64>(rate));
    if (rate > peak_rate_) {
      peak_rate_ = rate;
      g_peak_rate_.set(static_cast<u64>(rate));
    }
  }
  last_tail_ = s.tail;
  last_tail_ns_ = now;

  if (s.spill) {
    // Spill sessions run the tail past capacity by design (the drainer
    // reclaims the space), so wrap/saturation alarms don't apply; drainer
    // health is the signal instead.
    if (!drain_gauges_ready_) {
      drain_gauges_ready_ = true;
      g_drain_lag_ = registry_->gauge(metric_names::kDrainLagEntries);
      g_drain_spilled_ = registry_->gauge(metric_names::kDrainSpilledBytes);
      g_drain_stall_ = registry_->gauge(metric_names::kDrainStall);
    }
    g_drain_lag_.set(s.drain_lag);
    g_drain_spilled_.set(s.drain_spilled_bytes);
    // Stall: consumable work published but the drained total not moving —
    // a dead or wedged drainer. Writers are about to block on the space
    // wait and then start force-dropping, so this alarms ahead of loss.
    if (s.drain_lag > 0 && s.drained_entries == last_drained_) {
      ++drain_idle_windows_;
      if (!drain_stalled_ && drain_idle_windows_ >= options_.stall_windows) {
        drain_stalled_ = true;
        g_drain_stall_.set(1);
        journal_->record(EventType::kDrainStall, s.drain_lag,
                         s.drained_entries);
      }
    } else {
      if (drain_stalled_) {
        drain_stalled_ = false;
        g_drain_stall_.set(0);
      }
      drain_idle_windows_ = 0;
    }
    last_drained_ = s.drained_entries;
    return;
  }

  if (s.capacity == 0 || s.tail <= s.capacity) return;
  if (s.ring) {
    u64 wraps = s.tail / s.capacity;
    if (wraps > wraps_seen_) {
      wraps_seen_ = wraps;
      g_wraps_.set(wraps);
      journal_->record(EventType::kRingWrap, wraps);
    }
  } else if (!saturation_reported_) {
    // The drop gauge above already carries the precise (shm-resident)
    // count; the journal event marks the first moment of saturation.
    saturation_reported_ = true;
    journal_->record(EventType::kLogSaturated, s.tail, s.capacity);
  }
}

void Watchdog::observe_replicas() {
  if (!sample_replicas_) return;
  ReplicaSample s = sample_replicas_();
  g_replicas_.set(s.replicas);
  g_replica_primary_.set(s.primary);
  g_replica_drift_.set(s.drift_permille);
  g_replica_stalled_.set(s.stalled_replicas);
  g_failover_.set(s.failovers);
}

}  // namespace teeperf::obs
