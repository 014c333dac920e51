#include "core/counter.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/spin.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#endif

namespace teeperf {

const char* counter_mode_name(CounterMode mode) {
  switch (mode) {
    case CounterMode::kSoftware: return "software";
    case CounterMode::kTsc: return "tsc";
    case CounterMode::kSteadyClock: return "steady_clock";
  }
  return "?";
}

u64 read_counter(CounterMode mode, const LogHeader* header) {
  switch (mode) {
    case CounterMode::kSoftware:
      return header->counter.load(std::memory_order_relaxed);
    case CounterMode::kTsc:
#if defined(__x86_64__) || defined(__i386__)
      return __rdtsc();
#else
      return monotonic_ns();
#endif
    case CounterMode::kSteadyClock:
      return monotonic_ns();
  }
  return 0;
}

// --- CounterClassifier -------------------------------------------------------

void CounterClassifier::open(u64 value, u64 now_ns) {
  last_value_ = value;
  last_ns_ = now_ns;
  calibrating_ = true;
}

void CounterClassifier::close(u64 value, u64 now_ns) {
  observe(value, now_ns);
  calibrating_ = false;
}

obs::CounterSample CounterClassifier::observe(u64 value, u64 now_ns) {
  obs::CounterSample s;
  s.value = value;
  s.previous = last_value_;
  u64 start_ns = last_ns_;
  u64 dt = now_ns > start_ns ? now_ns - start_ns : 0;
  last_value_ = value;
  last_ns_ = now_ns;

  if (value < s.previous) {
    // Backjump: a tampered or wrapped time source. The unsigned delta would
    // wrap to ~2^64 and read as an absurdly fast window, so the window is
    // left out of the calibration entirely.
    s.verdict = obs::CounterVerdict::kBackjump;
  } else if (value == s.previous) {
    if (zero_windows_++ == 0) stall_start_ns_ = start_ns;
    s.verdict = obs::CounterVerdict::kZeroWindow;
    if (!stalled_ && zero_windows_ >= kStallWindows) {
      stalled_ = true;
      s.verdict = obs::CounterVerdict::kStalled;
    }
    s.stall_ns = now_ns - stall_start_ns_;
    if (calibrating_) sum_dt_ += static_cast<double>(dt);
  } else {
    s.verdict = obs::CounterVerdict::kAdvanced;
    double dc = static_cast<double>(value - s.previous);
    if (dt > 0) {
      s.window_ns_per_tick = static_cast<double>(dt) / dc;
      if (advanced_windows_ >= kCalibrationWindows && sum_dc_ > 0.0) {
        double calibrated = sum_dt_ / sum_dc_;
        double diff = s.window_ns_per_tick - calibrated;
        s.deviation = std::fabs(diff) / calibrated;
        bool drift = s.deviation > kDriftThreshold;
        s.drift_began = drift && !drifting_;
        drifting_ = drift;
      }
      ++advanced_windows_;
    }
    if (calibrating_) {
      sum_dt_ += static_cast<double>(dt);
      sum_dc_ += dc;
    }
  }
  if (s.verdict == obs::CounterVerdict::kAdvanced ||
      s.verdict == obs::CounterVerdict::kBackjump) {
    if (stalled_) {
      s.recovered = true;
      s.stall_ns = now_ns - stall_start_ns_;
    }
    stalled_ = false;
    zero_windows_ = 0;
  }
  s.stalled = stalled_;
  s.drifting = drifting_;
  s.ns_per_tick = sum_dc_ > 0.0 ? sum_dt_ / sum_dc_ : 0.0;
  return s;
}

std::optional<double> CounterClassifier::ns_per_tick(u64 value,
                                                     u64 now_ns) const {
  double dt = sum_dt_;
  double dc = sum_dc_;
  if (calibrating_ && value >= last_value_ && now_ns > last_ns_) {
    dt += static_cast<double>(now_ns - last_ns_);
    dc += static_cast<double>(value - last_value_);
  }
  if (dc <= 0.0 || dt <= 0.0) return std::nullopt;
  return dt / dc;
}

// --- CounterService ----------------------------------------------------------

namespace {

// The CPUs this thread may run on, in order: replica i is pinned to the
// (i mod n)-th of them, so on a machine with spare cores every replica owns
// one (the paper sacrifices a core for the counter; replication sacrifices
// up to three small slices), and taskset or a cpuset is never escaped.
// Empty where the mask cannot be read: the replicas then run unpinned.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
#endif
  return cpus;
}

// Best-effort: a failed pin leaves the thread on the inherited mask.
void pin_to_cpu(std::thread& t, int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)cpu;
#endif
}

}  // namespace

CounterService::CounterService(ProfileLog* log, CounterMode mode,
                               CounterServiceOptions options,
                               obs::EventJournal* journal)
    : header_(log->header()),
      mode_(mode),
      options_(options),
      journal_(journal),
      published_(published(), monotonic_ns()) {
  // A block of one replica is a single counter: nothing to elect.
  replicas_ = mode == CounterMode::kSoftware && log->counter_replica_count() >= 2
                  ? log->counter_replica_count()
                  : 0;
  dir_ = replicas_ ? log->replica_directory() : nullptr;
  slots_ = replicas_ ? log->replica_slot(0) : nullptr;
}

CounterService::~CounterService() { stop(); }

void CounterService::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (running_.load(std::memory_order_acquire)) return;  // idempotent
  stop_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> g(mu_);
    u64 now = monotonic_ns();
    published_.open(published(), now);
    replica_.assign(replicas_, CounterClassifier());
    mirror_.store(kNoMirror, std::memory_order_relaxed);
    for (u32 r = 0; r < replicas_; ++r) {
      replica_[r].open(slots_[r].value.load(std::memory_order_relaxed), now);
    }
  }
  running_.store(true, std::memory_order_release);
  if (mode_ != CounterMode::kSoftware) return;  // hardware: nothing to run
  u32 threads = replicas_ ? replicas_ : 1;
  std::vector<int> cpus = replicas_ ? allowed_cpus() : std::vector<int>();
  for (u32 r = 0; r < threads; ++r) {
    threads_.emplace_back([this, r] { tick(r); });
    if (!cpus.empty()) pin_to_cpu(threads_.back(), cpus[r % cpus.size()]);
  }
  if (replicas_) threads_.emplace_back([this] { detect(); });
}

void CounterService::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!running_.load(std::memory_order_acquire)) return;  // never started
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_.store(true, std::memory_order_release);
  }
  detector_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  {
    std::lock_guard<std::mutex> g(mu_);
    published_.close(published(), monotonic_ns());
  }
  running_.store(false, std::memory_order_release);
}

bool CounterService::take_mirror(u32 index, bool* rebase) {
  while (dir_->primary.load(std::memory_order_relaxed) == index) {
    u32 last = mirror_.load(std::memory_order_acquire);
    if (!(last & kMirrorBusy) &&
        mirror_.compare_exchange_weak(last, index | kMirrorBusy,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      *rebase = last != index;
      return true;
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    sched_yield();  // the previous primary is still inside its last batch
  }
  return false;
}

void CounterService::tick(u32 index) {
  // A single counter stores straight into the header word: the paper's
  // loop. A replica owns its slot, and only the elected primary mirrors
  // into the header.
  std::atomic<u64>* slot = slots_ ? &slots_[index].value : nullptr;
  u64 local = (slot ? *slot : header_->counter).load(std::memory_order_relaxed);
  u64 since_yield = 0;
  bool frozen = false;
  while (true) {
    bool rebase = false;
    bool primary = slot && !frozen && take_mirror(index, &rebase);
    if (rebase) {
      // Another replica mirrored since this one last did: continue from
      // the published timeline so the header word never moves backwards
      // across a fail-over.
      u64 h = header_->counter.load(std::memory_order_relaxed);
      if (h > local) local = h;
    }
    if (!frozen) {
      // One relaxed store per tick; only a replica primary pays the second
      // store that mirrors into the probe-visible header word.
      if (primary) {
        for (int i = 0; i < 1024; ++i) {
          ++local;
          slot->store(local, std::memory_order_relaxed);
          header_->counter.store(local, std::memory_order_relaxed);
        }
        mirror_.store(index, std::memory_order_release);
      } else if (slot) {
        for (int i = 0; i < 1024; ++i) {
          slot->store(++local, std::memory_order_relaxed);
        }
      } else {
        for (int i = 0; i < 1024; ++i) {
          header_->counter.store(++local, std::memory_order_relaxed);
        }
      }
      since_yield += 1024;
    } else {
      sched_yield();  // stalled clock: the thread lives, the word does not
    }
    if (stop_.load(std::memory_order_relaxed)) break;
    // Fault points, once per 1024-tick batch (one relaxed load when nothing
    // is armed): a stalled tick thread, and a word jumping backwards (a
    // tampered or wrapped time source). The .primary variants fire only in
    // the elected replica, which "armed against the primary" scenarios
    // need to be deterministic.
    if (fault::fires(fault_points::kCounterStall)) frozen = true;
    if (primary && fault::fires(fault_points::kCounterStallPrimary)) {
      frozen = true;
    }
    if (fault::fires(fault_points::kCounterBackjump) ||
        (primary && fault::fires(fault_points::kCounterBackjumpPrimary))) {
      u64 jump =
          4096 + fault::value_below(fault_points::kCounterBackjump, 4096);
      local = local > jump ? local - jump : 0;
      (slot ? *slot : header_->counter).store(local, std::memory_order_relaxed);
    }
    if (options_.yield_every && since_yield >= options_.yield_every) {
      since_yield = 0;
      sched_yield();
    }
  }
}

void CounterService::detect() {
  auto stopping = [this] { return stop_.load(std::memory_order_acquire); };
  std::unique_lock<std::mutex> lock(mu_);
  while (!detector_cv_.wait_for(
      lock, std::chrono::microseconds(kDetectIntervalUs),
      stopping)) {
    u64 now = monotonic_ns();
    u32 primary = dir_->primary.load(std::memory_order_relaxed);
    bool primary_bad = false;
    stalled_replicas_ = 0;
    drift_permille_ = 0;
    for (u32 r = 0; r < replicas_; ++r) {
      obs::CounterSample w = replica_[r].observe(
          slots_[r].value.load(std::memory_order_relaxed), now);
      if (w.verdict == obs::CounterVerdict::kBackjump) {
        // The replica keeps running, monotonic again from the lower value.
        dir_->backjumps.fetch_add(1, std::memory_order_relaxed);
        if (journal_) {
          journal_->record(obs::EventType::kCounterBackjump, w.value,
                           w.previous, "replica");
        }
        if (r == primary) primary_bad = true;
      }
      if (w.stalled) {
        ++stalled_replicas_;
        if (r == primary) primary_bad = true;
      }
      drift_permille_ = std::max(drift_permille_,
                                 static_cast<u64>(w.deviation * 1000.0));
    }
    if (primary_bad) elect(primary);
  }
}

void CounterService::elect(u32 from) {
  // The healthy replica with the largest value has made the most progress,
  // so rebasing onto it loses the least resolution and the mirrored
  // timeline only ever moves forward.
  u32 best = from;
  u64 best_v = 0;
  for (u32 r = 0; r < replicas_; ++r) {
    if (r == from || replica_[r].stalled()) continue;
    u64 v = slots_[r].value.load(std::memory_order_relaxed);
    if (best == from || v > best_v) {
      best = r;
      best_v = v;
    }
  }
  if (best == from) return;
  dir_->primary.store(best, std::memory_order_release);
  dir_->failovers.fetch_add(1, std::memory_order_relaxed);
  if (journal_) {
    journal_->record(obs::EventType::kCounterFailover, from, best, "replica");
  }
}

obs::CounterSample CounterService::with_replicas(obs::CounterSample s) const {
  s.replicas = replicas_;
  if (dir_) {
    s.primary = dir_->primary.load(std::memory_order_relaxed);
    s.failovers = dir_->failovers.load(std::memory_order_relaxed);
    s.backjumps = dir_->backjumps.load(std::memory_order_relaxed);
    s.stalled_replicas = stalled_replicas_;
    s.drift_permille = drift_permille_;
  }
  return s;
}

obs::CounterSample CounterService::observe() {
  std::lock_guard<std::mutex> lock(mu_);
  last_ = published_.observe(published(), monotonic_ns());
  return with_replicas(last_);
}

obs::CounterSample CounterService::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return with_replicas(last_);
}

std::optional<double> CounterService::ns_per_tick() const {
  if (mode_ == CounterMode::kSteadyClock) return 1.0;  // ticks ARE ns
  std::lock_guard<std::mutex> lock(mu_);
  return published_.ns_per_tick(published(), monotonic_ns());
}

}  // namespace teeperf
