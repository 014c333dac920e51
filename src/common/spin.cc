#include "common/spin.h"

#include <atomic>
#include <algorithm>
#include <ctime>

namespace teeperf {
namespace {

std::atomic<double> g_iters_per_us{0.0};

// The spin body must not be optimizable away; an empty asm statement with a
// dependency on the loop counter pins it in place.
inline void spin_iterations(u64 iters) {
  for (u64 i = 0; i < iters; ++i) asm volatile("" : : "r"(i) : "memory");
}

double calibrate() {
  // Warm up, then time a series of blocks and keep the *median* rate.
  // The maximum would measure burst speed (turbo / a momentarily idle
  // hypervisor), which sustained spinning cannot hold; the median of
  // sustained-size blocks tracks the speed the charged spins actually run
  // at. Total cost ~5 ms once per process.
  spin_iterations(500000);
  double rates[9] = {};
  int got = 0;
  for (int round = 0; round < 9; ++round) {
    constexpr u64 kIters = 1'000'000;
    u64 t0 = monotonic_ns();
    spin_iterations(kIters);
    u64 t1 = monotonic_ns();
    if (t1 <= t0) continue;
    rates[got++] = static_cast<double>(kIters) * 1000.0 /
                   static_cast<double>(t1 - t0);
  }
  if (got == 0) return 1000.0;
  std::sort(rates, rates + got);
  return rates[got / 2];
}

}  // namespace

// teeperf-lint: allow(r1): clock_gettime(CLOCK_MONOTONIC) is a vDSO read,
// not a kernel entry; it is the kSteadyClock counter source itself.
u64 monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<u64>(ts.tv_nsec);
}

double spin_iters_per_us() {
  double v = g_iters_per_us.load(std::memory_order_relaxed);
  if (v == 0.0) {
    v = calibrate();
    g_iters_per_us.store(v, std::memory_order_relaxed);
  }
  return v;
}

void spin_for_ns(u64 ns) {
  if (ns == 0) return;
  double iters = spin_iters_per_us() * static_cast<double>(ns) / 1000.0;
  spin_iterations(static_cast<u64>(iters) + 1);
}

}  // namespace teeperf
