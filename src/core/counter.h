// Time sources for the recorder (§II-B, stage #2), and the one counter
// service that runs, calibrates and health-checks them (DESIGN.md §7, §13).
//
// TEE-Perf must work without architecture-specific timers, so its portable
// time source is a *software counter*: a host thread incrementing a 64-bit
// word in a tight loop. The word lives in the log header, so the counter
// thread's cache footprint is a single line. Because TEE-Perf does
// method-level *relative* profiling, the counter only needs to be monotonic
// and fine-grained, not calibrated.
//
// Where hardware counters are available the recorder "is responsible for
// making [them] accessible" — here as a TSC-based and a clock_gettime-based
// source. On the single-core CI machine these are the default for benches,
// because a dedicated counter thread would starve the workload (the paper
// runs on 4 cores and explicitly accepts sacrificing one).
//
// One CounterService owns a session's time (Triad's single trusted
// authority, PAPERS.md): the software tick threads, the only tick→ns
// calibrator and the only stall/backjump/drift classifier. The watchdog
// publishes the service's verdicts; it measures nothing itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"
#include "obs/events.h"
#include "obs/watchdog.h"

namespace teeperf {

enum class CounterMode {
  kSoftware,     // dedicated thread incrementing LogHeader::counter
  kTsc,          // rdtsc (falls back to kSteadyClock on non-x86)
  kSteadyClock,  // CLOCK_MONOTONIC nanoseconds
};

const char* counter_mode_name(CounterMode mode);

// Reads the current counter value for `mode`. `header` is only used by
// kSoftware. Marked always_inline adjacent: this is the hook hot path.
u64 read_counter(CounterMode mode, const LogHeader* header);

// The calibrator and classifier of one counter word. Each observe() closes
// the window opened by the previous call (or by open()) and classifies it:
// advanced, zero-window, stalled (the k-th zero window in a row) or
// backjump. While calibrating, every window except a backjump adds its
// (Δns, Δticks) to Σdt/Σdc. Zero-tick windows count on purpose: profiled
// code accrues no ticks while the counter is descheduled either, so their
// time belongs in the tick→ns rate. An advanced window whose rate deviates
// from the running Σdt/Σdc by more than kDriftThreshold is drift. No clock,
// no thread: the caller supplies every (value, now_ns) pair.
class CounterClassifier {
 public:
  static constexpr u32 kStallWindows = 2;
  static constexpr double kDriftThreshold = 0.5;
  // Advanced windows accumulated before the drift check arms.
  static constexpr u32 kCalibrationWindows = 4;

  CounterClassifier() = default;
  // Starts at (value, now_ns) without calibrating.
  CounterClassifier(u64 value, u64 now_ns)
      : last_value_(value), last_ns_(now_ns) {}

  // Opens a window at (value, now_ns) and calibrates from here on.
  void open(u64 value, u64 now_ns);
  // Closes the open window, classifies it and opens the next one.
  obs::CounterSample observe(u64 value, u64 now_ns);
  // Closes the open window and stops calibrating until the next open().
  void close(u64 value, u64 now_ns);

  // Σdt/Σdc, counting the open window up to (value, now_ns) while
  // calibrating; nullopt until a tick has been accumulated.
  std::optional<double> ns_per_tick(u64 value, u64 now_ns) const;
  bool stalled() const { return stalled_; }

 private:
  bool calibrating_ = false;
  u64 last_value_ = 0;
  u64 last_ns_ = 0;
  u32 zero_windows_ = 0;
  u64 stall_start_ns_ = 0;
  bool stalled_ = false;
  bool drifting_ = false;
  u32 advanced_windows_ = 0;
  double sum_dt_ = 0.0;  // Σ wall-ns over the calibrated windows
  double sum_dc_ = 0.0;  // Σ ticks over the same windows
};

struct CounterServiceOptions {
  // sched_yield after this many increments per tick thread (0 = the
  // paper's pure tight loop, appropriate when a spare core exists).
  u64 yield_every = 4096;
};

// A session's time. kSoftware runs N = max(1, log->counter_replica_count())
// tick threads, and the replica count alone decides the shape:
//   - N = 1: one thread stores straight into LogHeader::counter — the
//     paper's tight loop, with no slot, no mirror and no detector.
//   - N >= 2: each replica increments its own cache-line-isolated slot,
//     pinned to the (i mod n)-th CPU of the inherited affinity mask. A
//     detector classifies every slot each kDetectIntervalUs, elects a
//     primary and fails over when it stalls or jumps backwards. The primary
//     mirrors its ticks into the header word, rebasing onto it when elected
//     so the published timeline stays monotonic.
// Hardware modes run no thread. In every mode the word the probes read is
// the one calibrated: windows run from start() through each observe() to
// stop(), or to ns_per_tick() at dump time.
class CounterService {
 public:
  // `log` must outlive the service. Failovers and replica backjumps are
  // journaled into `journal` when it is set.
  CounterService(ProfileLog* log, CounterMode mode,
                 CounterServiceOptions options = {},
                 obs::EventJournal* journal = nullptr);
  ~CounterService();

  CounterService(const CounterService&) = delete;
  CounterService& operator=(const CounterService&) = delete;

  // Race-free and idempotent: concurrent or repeated start()/stop() pairs
  // are serialized on an internal mutex, so a stop() racing a start()
  // always joins the threads it observed.
  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  CounterMode mode() const { return mode_; }

  // Feeds the published word into the classifier: one watchdog window.
  obs::CounterSample observe();
  // The last observe()'s window with the live replica state; closes no
  // window.
  obs::CounterSample health() const;
  // ns per tick of the published word: 1.0 for kSteadyClock by definition,
  // otherwise Σdt/Σdc (see CounterClassifier). nullopt while no tick has
  // been seen — the dump then records 0, "uncalibrated".
  std::optional<double> ns_per_tick() const;

 private:
  // The detector's cross-check cadence: much finer than the watchdog's
  // 50 ms so fail-over completes within a few milliseconds of a primary
  // stall.
  static constexpr u64 kDetectIntervalUs = 2000;

  void tick(u32 index);
  // Takes the header word for one mirrored batch while `index` is the
  // elected primary; false once it is not. Waits out a previous primary
  // still inside its last batch (descheduled mid-loop), whose late stores
  // would otherwise land after the new primary's. `*rebase` is set when
  // another replica mirrored since `index` last did.
  bool take_mirror(u32 index, bool* rebase);
  void detect();
  void elect(u32 from);
  u64 published() const { return read_counter(mode_, header_); }
  obs::CounterSample with_replicas(obs::CounterSample s) const;  // mu_ held

  LogHeader* header_;
  CounterReplicaDirectory* dir_;  // null unless N >= 2
  CounterReplicaSlot* slots_;
  CounterMode mode_;
  CounterServiceOptions options_;
  obs::EventJournal* journal_;
  u32 replicas_;  // replica block size; 0 for a single counter

  std::mutex lifecycle_mu_;  // serializes start()/stop(); never on a hot path
  std::atomic<bool> stop_{false};  // set under mu_ for the detector's wait
  std::atomic<bool> running_{false};
  // The replica that mirrored into the header word last, with kMirrorBusy
  // set while its batch is in flight (take_mirror()). In-process, not shm.
  static constexpr u32 kMirrorBusy = 1u << 31;
  static constexpr u32 kNoMirror = kMirrorBusy - 1;
  std::atomic<u32> mirror_{kNoMirror};

  // Classifier state, shared by the detector, the watchdog and the owner.
  mutable std::mutex mu_;
  std::condition_variable detector_cv_;
  CounterClassifier published_;
  obs::CounterSample last_;
  std::vector<CounterClassifier> replica_;
  u32 stalled_replicas_ = 0;
  u64 drift_permille_ = 0;

  std::vector<std::thread> threads_;  // tick threads, then the detector
};

}  // namespace teeperf
