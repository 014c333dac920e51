// The Linux-perf stand-in (see DESIGN.md substitutions).
//
// Linux perf interrupts the application at a fixed frequency and records
// the instruction pointer / user-space call stack of whatever is running.
// This baseline reproduces that cost and measurement model with a
// POSIX-portable mechanism: ITIMER_PROF fires SIGPROF at `frequency_hz`
// (delivered to a currently-running thread), and the async-signal-safe
// handler snapshots that thread's shadow stack into a preallocated sample
// buffer. Per-sample cost (signal delivery + stack copy) is real, exactly
// like perf's "context switches to sample the data periodically" (§IV-B).
//
// The design also reproduces perf's weakness the paper calls out in the
// abstract: *sampling frequency bias* — threads whose phases align with the
// sampling period are systematically mis-measured (ablation A3).
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"

namespace teeperf::perfsim {

struct SamplerOptions {
  u64 frequency_hz = 997;   // prime, like perf's default 997/999 trick
  usize max_samples = 1u << 20;
  int max_depth = 64;       // frames captured per sample
};

// A captured sample: the stack bottom→top at the interrupt.
struct Sample {
  u64 tid = 0;  // the profiler's thread id; ~0 for a thread no hook has run on
  u16 depth = 0;
  const u64* frames = nullptr;  // points into the profiler's frame arena
};

class SamplingProfiler {
 public:
  explicit SamplingProfiler(const SamplerOptions& options = {});
  ~SamplingProfiler();

  SamplingProfiler(const SamplingProfiler&) = delete;
  SamplingProfiler& operator=(const SamplingProfiler&) = delete;

  // Installs the SIGPROF handler and arms the profiling timer. Only one
  // SamplingProfiler may run per process at a time (signal disposition is
  // process-global); start returns false if another is active.
  bool start();
  void stop();
  bool running() const;

  usize sample_count() const;
  // Samples dropped because the buffer was full.
  usize dropped() const;
  // Decoded view of the captured samples. Valid until the profiler dies.
  std::vector<Sample> samples() const;

  // Leaf-frame counts: method id → samples where it was on top — the
  // flat-profile view perf report gives. Pairs sorted by count descending.
  std::vector<std::pair<u64, usize>> leaf_counts() const;
  // Inclusive counts: method id → samples where it was anywhere on stack.
  std::vector<std::pair<u64, usize>> inclusive_counts() const;

  // perf-report-style flat profile text: overhead%, samples, symbol.
  std::string flat_report(const std::function<std::string(u64)>& name_of,
                          usize limit = 20) const;

  // Folded stacks (path → sample count) for flame-graphing a *sampled*
  // profile — what `perf script | stackcollapse` produces. `name_of`
  // resolves frame ids (e.g. SymbolRegistry lookup).
  std::vector<std::pair<std::string, u64>> folded_stacks(
      const std::function<std::string(u64)>& name_of) const;

 private:
  friend void sigprof_handler(int);

  SamplerOptions options_;
  // Sample records packed as [tid, depth, frame0..frame{depth-1}] in a
  // preallocated arena; `cursor_` reserves via fetch_add (signal-safe).
  std::vector<u64> arena_;
  std::atomic<usize> cursor_{0};
  std::atomic<usize> count_{0};
  std::atomic<usize> dropped_{0};
  bool running_ = false;
};

}  // namespace teeperf::perfsim
