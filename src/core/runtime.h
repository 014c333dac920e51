// The in-application half of the recorder (§II-B, stage #2): the code that
// the compiler pass (or the RAII scope API) invokes on every function entry
// and exit. It writes log entries into the shared-memory log and maintains a
// per-thread shadow stack that the sampling-profiler baseline reads
// asynchronously.
//
// Everything on the hot path is annotated no_instrument_function so that a
// binary compiled with -finstrument-functions does not recurse into its own
// profiler (§III: "the injected code has to prevent to be measured itself").
#pragma once

#include <vector>

#include "common/types.h"
#include "core/counter.h"
#include "core/filter.h"
#include "core/log_format.h"

#define TEEPERF_NO_INSTRUMENT __attribute__((no_instrument_function))

namespace teeperf::runtime {

// Per-thread shadow stack of function ids. Readable from a signal handler:
// depth is an atomic written after the frame slot, and readers tolerate the
// benign race of a frame changing under them (it is a sampling profile).
struct ShadowStack {
  static constexpr int kMaxDepth = 512;
  u64 frames[kMaxDepth];
  std::atomic<int> depth{0};
};

struct ThreadState {
  // Direct-mapped filter in front of the global first-sight address table
  // (see seen_addresses): one TLS load + compare per recorded event in the
  // steady state, global CAS probes only on conflict misses.
  static constexpr usize kAddrCacheSize = 256;  // power of two
  u64 addr_cache[kAddrCacheSize] = {};
  u64 tid = ~0ull;
  bool in_hook = false;  // reentrancy guard
  // Cached per-thread telemetry counter, pointing straight at its shm cell:
  // the entries this thread handed to the log, added once per batch publish
  // (never per event), so it trails the thread's recorded events by less
  // than LogBatch::kCapacity. `obs_epoch` detects that the cached pointer
  // belongs to a torn-down telemetry region (see obs/session.h); it is
  // checked at publish time, with the add.
  std::atomic<u64>* obs_entries = nullptr;
  u64 obs_epoch = 0;
  ShadowStack stack;
  // Thread-local batch: every recorded event reaches the log through it.
  // Published when it fills, on returning to call depth 0, on observing
  // deactivation, at thread exit, and by detach() for the detaching thread.
  LogBatch batch;
};

// Installs the session: `log` may be null for sampling-only sessions (the
// shadow stacks are still maintained). `filter` may be null (record all).
// Neither object may be destroyed before detach(). Only one session can be
// attached at a time; attach returns false if one already is.
bool attach(ProfileLog* log, CounterMode mode, const Filter* filter) TEEPERF_NO_INSTRUMENT;
void detach() TEEPERF_NO_INSTRUMENT;
bool attached() TEEPERF_NO_INSTRUMENT;

// The instrumentation entry points. `addr` is a raw function address (cyg
// hooks) or a registered symbol id (scope API).
void on_enter(u64 addr) TEEPERF_NO_INSTRUMENT;
void on_exit(u64 addr) TEEPERF_NO_INSTRUMENT;

// This thread's profiler-assigned id (dense, assigned on first event).
u64 current_tid() TEEPERF_NO_INSTRUMENT;

// Copies the calling thread's shadow stack (bottom → top) into `out`,
// returning the depth copied (≤ max), and stores the thread's id in `tid`.
// Async-signal-safe: it never creates the thread's state, so a thread the
// hooks have not touched yields depth 0 and tid ~0.
int capture_own_stack(u64* out, int max, u64* tid) TEEPERF_NO_INSTRUMENT;

// Appends every raw function address recorded since process start (or the
// last reset) to `out`. A drained (spill mode) or wrapped (ring mode) log
// no longer holds every address that passed through it, so exit-time
// symbolization (symbol_dump) walks this set rather than only the residual
// window. Backed by a fixed-capacity lock-free table; on saturation new
// addresses are simply not tracked and symbolization degrades to whatever
// the residue holds.
void seen_addresses(std::vector<u64>* out);

// Resets the calling thread's shadow stack and cached tid. Test-only: lets
// one process run many independent sessions.
void reset_thread_for_test() TEEPERF_NO_INSTRUMENT;

// Whether the calling thread's state exists (the hooks or a runtime call
// made on this thread created it). Test-only.
bool thread_state_created_for_test() TEEPERF_NO_INSTRUMENT;

// Clears the first-sight address table. Test-only, same purpose.
void reset_seen_addresses_for_test();

}  // namespace teeperf::runtime
