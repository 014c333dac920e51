#include "tee/sysapi.h"

#include <time.h>
#include <unistd.h>

#include "core/scope.h"
#include "tee/enclave.h"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace teeperf::tee::sys {

TrapCounts& thread_trap_counts() {
  thread_local TrapCounts counts;
  return counts;
}

namespace {

// Charges a trapped-syscall OCALL when inside an enclave.
inline void charge_syscall() {
  Enclave* e = Enclave::current();
  if (!e) return;
  e->counters().trapped_syscalls.fetch_add(1, std::memory_order_relaxed);
  e->charge(e->costs().syscall_ocall_ns);
}

}  // namespace

u64 getpid() {
  TEEPERF_SCOPE("getpid");
  ++thread_trap_counts().getpid;
  charge_syscall();
  return static_cast<u64>(::getpid());
}

u64 rdtsc() {
  TEEPERF_SCOPE("rdtsc");
  ++thread_trap_counts().rdtsc;
  Enclave* e = Enclave::current();
  // Only SGX-like TEEs make rdtsc illegal; a zero trap cost means the
  // architecture allows direct timer reads (TrustZone/SEV profiles).
  if (e && e->costs().rdtsc_trap_ns > 0) {
    e->counters().rdtsc_traps.fetch_add(1, std::memory_order_relaxed);
    e->charge(e->costs().rdtsc_trap_ns);
  }
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
#endif
}

u64 clock_gettime_ns() {
  TEEPERF_SCOPE("clock_gettime");
  ++thread_trap_counts().clock;
  charge_syscall();
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<u64>(ts.tv_sec) * 1'000'000'000ull + static_cast<u64>(ts.tv_nsec);
}

usize write_out(const void* data, usize len) {
  TEEPERF_SCOPE("write");
  ++thread_trap_counts().write;
  Enclave* e = Enclave::current();
  if (e) {
    e->counters().trapped_syscalls.fetch_add(1, std::memory_order_relaxed);
    e->charge(e->costs().syscall_ocall_ns);
    e->charge_mee(len, /*random=*/false);  // copy-out crosses the MEE
  }
  (void)data;
  return len;
}

}  // namespace teeperf::tee::sys
