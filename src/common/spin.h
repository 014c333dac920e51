// Calibrated busy-waiting. The TEE simulator charges micro-architectural
// costs (enclave transitions, secure paging, memory-encryption penalties) as
// *real wall-clock time* so that any profiler — sampling or tracing —
// observes them. A calibrated spin loop is used instead of sleeping because
// the charged costs are far below scheduler granularity (tens of ns to a few
// µs) and must consume CPU the way the real hardware penalty would.
#pragma once

#include "common/types.h"

namespace teeperf {

// Busy-spins for approximately `ns` nanoseconds. Calibrated once per process
// on first use.
void spin_for_ns(u64 ns);

// Returns the calibrated number of loop iterations per microsecond.
double spin_iters_per_us();

// Monotonic nanosecond clock (CLOCK_MONOTONIC).
u64 monotonic_ns();

}  // namespace teeperf
