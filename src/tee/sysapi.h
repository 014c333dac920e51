// The in-enclave system interface. Direct syscalls (and rdtsc) are illegal
// inside a TEE, so shielded applications call the host through wrappers
// ("the I/O operations have to pass through some wrappers", §I). These
// functions are world-agnostic: outside an enclave they are plain host
// calls; inside, they charge the OCALL / trap cost first and count the event.
//
// Each wrapper opens a TEEPERF scope under its plain name ("getpid",
// "rdtsc", ...), so profiles show the system-interface frames exactly as the
// paper's flame graphs do (Figure 6: getpid 72%, rdtsc 20%).
#pragma once

#include <string_view>

#include "common/types.h"

namespace teeperf::tee::sys {

// Process id. The SPDK/DPDK request path calls this per allocation, which is
// the Figure 6 bottleneck.
u64 getpid();

// Timestamp counter. Illegal inside SGXv1 — trapped and emulated, the other
// Figure 6 bottleneck.
u64 rdtsc();

// Wall clock in nanoseconds (clock_gettime) — a syscall when inside.
u64 clock_gettime_ns();

// Simulated file write of `len` bytes (the generic I/O wrapper): charged as
// one OCALL plus copy-out MEE traffic. Returns len.
usize write_out(const void* data, usize len);

// Per-thread count of trapped events, for tests.
struct TrapCounts {
  u64 getpid = 0;
  u64 rdtsc = 0;
  u64 clock = 0;
  u64 write = 0;
};
TrapCounts& thread_trap_counts();

}  // namespace teeperf::tee::sys
