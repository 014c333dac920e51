#include "obs/watchdog.h"

#include <chrono>

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

// Consecutive windows with published-but-unconsumed work and no drain
// progress before the drainer counts as stalled.
constexpr u32 kDrainStallWindows = 2;

Watchdog::Watchdog(MetricsRegistry* registry, EventJournal* journal,
                   std::function<CounterSample()> sample_counter,
                   std::string mode_name, u64 interval_ms)
    : registry_(registry),
      journal_(journal),
      sample_counter_(std::move(sample_counter)),
      mode_name_(std::move(mode_name)),
      interval_ms_(interval_ms) {
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

void Watchdog::start() {
  if (running_) return;
  stop_requested_ = false;
  last_tail_ns_ = monotonic_ns();
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
    cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_));
    if (stop_requested_) break;
    if (sample_counter_) publish(sample_counter_());
    observe_log();
    // Pick up fault arms published through the obs region by an external
    // controller (see obs/session.cc). No-op unless a bridge is installed.
    fault::Registry::instance().poll_external();
    wd_ticks_.inc();
  }
}

void Watchdog::publish(const CounterSample& s) {
  g_stalled_.set(s.stalled ? 1 : 0);
  g_drifting_.set(s.drifting ? 1 : 0);
  switch (s.verdict) {
    case CounterVerdict::kAdvanced:
      g_ns_per_tick_.set(to_pico(s.window_ns_per_tick));
      h_ns_per_tick_.add(to_pico(s.window_ns_per_tick));
      break;
    case CounterVerdict::kStalled:
      stall_events_.inc();
      journal_->record(EventType::kCounterStall, s.value, s.stall_ns,
                       mode_name_);
      break;
    case CounterVerdict::kBackjump:
      backjump_events_.inc();
      journal_->record(EventType::kCounterBackjump, s.value, s.previous,
                       mode_name_);
      break;
    case CounterVerdict::kZeroWindow:
      break;
  }
  if (s.recovered) {
    journal_->record(EventType::kCounterRecover, s.value, s.stall_ns,
                     mode_name_);
  }
  if (s.drift_began) {
    // One event per drift episode; the gauge carries the live state.
    drift_events_.inc();
    journal_->record(EventType::kCounterDrift, to_pico(s.window_ns_per_tick),
                     to_pico(s.ns_per_tick), mode_name_);
  }
  if (s.replicas == 0) return;
  if (!replica_gauges_ready_) {
    replica_gauges_ready_ = true;
    g_replicas_ = registry_->gauge(metric_names::kCounterReplicas);
    g_replica_primary_ = registry_->gauge(metric_names::kCounterReplicaPrimary);
    g_replica_drift_ = registry_->gauge(metric_names::kCounterReplicaDrift);
    g_replica_stalled_ = registry_->gauge(metric_names::kCounterReplicaStalled);
    g_failover_ = registry_->gauge(metric_names::kCounterFailover);
  }
  g_replicas_.set(s.replicas);
  g_replica_primary_.set(s.primary);
  g_replica_drift_.set(s.drift_permille);
  g_replica_stalled_.set(s.stalled_replicas);
  g_failover_.set(s.failovers);
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
      if (!drain_stalled_ && drain_idle_windows_ >= kDrainStallWindows) {
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

}  // namespace teeperf::obs
