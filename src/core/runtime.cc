#include "core/runtime.h"

#include "common/stringutil.h"
#include "core/symbol_registry.h"
#include "obs/metric_names.h"
#include "obs/session.h"

namespace teeperf::runtime {
namespace {

struct Session {
  ProfileLog* log = nullptr;
  CounterMode mode = CounterMode::kSteadyClock;
  const Filter* filter = nullptr;
};

Session g_session;
std::atomic<bool> g_attached{false};
std::atomic<u64> g_next_tid{0};

// First-sight table of raw function addresses (see runtime.h
// seen_addresses): open addressing over a fixed power-of-two array, empty
// slots are 0 (function addresses are never 0), insertion is a relaxed CAS.
// No locks, no allocation — r1-clean by construction. The probe chain is
// capped so a near-full table costs bounded work; beyond that new addresses
// are dropped, which only degrades exit-time symbolization to the residual
// log window.
constexpr usize kSeenSlots = 1 << 14;  // 16k distinct instrumented functions
constexpr usize kSeenMaxProbe = 64;
std::atomic<u64> g_seen_addrs[kSeenSlots];

TEEPERF_NO_INSTRUMENT void note_address(ThreadState& t, u64 addr) {
  usize ci = (addr >> 4) & (ThreadState::kAddrCacheSize - 1);
  if (t.addr_cache[ci] == addr) return;
  t.addr_cache[ci] = addr;
  u64 h = addr * 0x9E3779B97F4A7C15ull;
  usize slot = static_cast<usize>(h ^ (h >> 29)) & (kSeenSlots - 1);
  for (usize i = 0; i < kSeenMaxProbe; ++i) {
    u64 cur = g_seen_addrs[slot].load(std::memory_order_relaxed);
    if (cur == addr) return;
    if (cur == 0) {
      u64 expected = 0;
      if (g_seen_addrs[slot].compare_exchange_strong(
              expected, addr, std::memory_order_relaxed,
              std::memory_order_relaxed)) {
        return;
      }
      if (expected == addr) return;  // lost the race to the same address
    }
    slot = (slot + 1) & (kSeenSlots - 1);
  }
}

TEEPERF_NO_INSTRUMENT u64 tid_of(ThreadState& t) {
  if (t.tid == ~0ull) t.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t.tid;
}

// Per-thread telemetry counter, registered on this thread's first publish
// and cached as a raw shm-cell pointer — after that, each publish costs one
// relaxed fetch_add on a line no other thread touches. High tids share one
// overflow counter so the registry cannot be exhausted by thread churn.
// teeperf-lint: allow(r1): once-per-thread-per-epoch registration slow path;
// every later publish takes the cached-cell branch above the lookup.
TEEPERF_NO_INSTRUMENT std::atomic<u64>* obs_entry_cell(ThreadState& t) {
  u64 epoch = obs::telemetry_epoch();
  if (t.obs_epoch != epoch) {
    t.obs_epoch = epoch;
    t.obs_entries = nullptr;
    if (obs::SelfTelemetry* tel = obs::telemetry()) {
      u64 tid = tid_of(t);
      std::string name = tid < 32
                             ? str_format(obs::metric_names::kAppThreadEntriesFmt,
                                          static_cast<unsigned long long>(tid))
                             : obs::metric_names::kAppThreadOtherEntries;
      t.obs_entries = tel->registry().counter(name).cell();
    }
  }
  return t.obs_entries;
}

// Adds what the batch handed to the log since the last call to the thread's
// telemetry counter. Runs after every hook, but reaches shared memory (and
// checks the telemetry epoch) only when a publish happened: once per batch,
// not once per event. The counter thus equals the entries this thread
// handed to the log.
TEEPERF_NO_INSTRUMENT void count_published(ThreadState& t) {
  u64 n = t.batch.take_published();
  if (n == 0) return;
  if (std::atomic<u64>* cell = obs_entry_cell(t)) {
    cell->fetch_add(n, std::memory_order_relaxed);
  }
}

TEEPERF_NO_INSTRUMENT void publish(ThreadState& t, ProfileLog& log) {
  t.batch.flush(log);
  count_published(t);
}

// The calling thread's state once create_thread_state() has made it: what
// thread_state() returns, and all that the readers in signal context
// (capture_own_stack) read. Constant-initialized and
// trivially destructible, so reading it runs no TLS constructor and
// registers no TLS destructor: glibc registers one with calloc, which a
// signal handler interrupting malloc must not call.
constinit thread_local ThreadState* t_created_state = nullptr;

// Wrapping the per-thread state gives its batch a flush-at-thread-exit hook
// without making ThreadState itself non-trivial: pending entries publish
// when the thread unwinds, so short-lived threads lose nothing.
struct ThreadStateHolder {
  ThreadState state;
  TEEPERF_NO_INSTRUMENT ThreadStateHolder() { t_created_state = &state; }
  TEEPERF_NO_INSTRUMENT ~ThreadStateHolder() {
    t_created_state = nullptr;
    if (g_attached.load(std::memory_order_acquire) && g_session.log) {
      publish(state, *g_session.log);
    } else {
      state.batch.abandon();
    }
  }
};

// Creates the calling thread's state on its first use. Kept out of line
// and cold, so the hooks' fast path below is one TLS load and a test.
TEEPERF_NO_INSTRUMENT __attribute__((noinline, cold)) ThreadState& create_thread_state() {
  thread_local ThreadStateHolder holder;
  return holder.state;
}

TEEPERF_NO_INSTRUMENT ThreadState& thread_state() {
  if (ThreadState* t = t_created_state) [[likely]] return *t;
  return create_thread_state();
}

// The logging half of both hooks. One load of the flags word decides
// whether the event is recorded: kActive and the kind's record bit must
// both be set. An event that is not recorded — deactivation, a cleared
// record bit or the filter — publishes whatever the batch still holds, so
// a stop() is promptly visible to the host side rather than deferred to
// the next flush trigger.
TEEPERF_NO_INSTRUMENT void log_event(ThreadState& t, ProfileLog& log,
                                     EventKind kind, u64 addr) {
  const u64 want = log_flags::kActive | (kind == EventKind::kCall
                                             ? log_flags::kRecordCalls
                                             : log_flags::kRecordReturns);
  if ((log.flags() & want) == want &&
      (!g_session.filter || g_session.filter->passes(addr))) {
    t.batch.record(log, kind, addr, tid_of(t),
                   read_counter(g_session.mode, log.header()));
    if (!SymbolRegistry::is_registered_id(addr)) note_address(t, addr);
  } else if (t.batch.pending()) {
    t.batch.flush(log);
  }
}

}  // namespace

bool attach(ProfileLog* log, CounterMode mode, const Filter* filter) {
  bool expected = false;
  if (!g_attached.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return false;
  }
  g_session.log = log;
  g_session.mode = mode;
  g_session.filter = filter;
  std::atomic_thread_fence(std::memory_order_release);
  return true;
}

void detach() {
  // Publish the detaching thread's buffered events before the session goes
  // away; other threads flush at their next event, depth-0 return, or exit.
  ThreadState& t = thread_state();
  if (g_session.log) publish(t, *g_session.log);
  g_session.log = nullptr;
  g_session.filter = nullptr;
  g_attached.store(false, std::memory_order_release);
}

bool attached() { return g_attached.load(std::memory_order_acquire); }

void on_enter(u64 addr) {
  if (!g_attached.load(std::memory_order_acquire)) return;
  ThreadState& t = thread_state();
  if (t.in_hook) return;
  t.in_hook = true;

  // Shadow stack is maintained for every event (the sampler baseline needs
  // it even when no trace log is attached).
  int d = t.stack.depth.load(std::memory_order_relaxed);
  if (d < ShadowStack::kMaxDepth) {
    t.stack.frames[d] = addr;
    t.stack.depth.store(d + 1, std::memory_order_release);
  } else {
    // Overflowing frames are not tracked individually; keep depth pinned so
    // matching on_exit calls below still unwind correctly.
    t.stack.depth.store(d + 1, std::memory_order_release);
  }

  if (ProfileLog* log = g_session.log) {
    log_event(t, *log, EventKind::kCall, addr);
    count_published(t);
  }
  t.in_hook = false;
}

void on_exit(u64 addr) {
  if (!g_attached.load(std::memory_order_acquire)) return;
  ThreadState& t = thread_state();
  if (t.in_hook) return;
  t.in_hook = true;

  int d = t.stack.depth.load(std::memory_order_relaxed);
  if (d > 0) t.stack.depth.store(d - 1, std::memory_order_release);

  if (ProfileLog* log = g_session.log) {
    log_event(t, *log, EventKind::kReturn, addr);
    // Returning to depth 0 means the thread's outermost instrumented call
    // is complete — a natural quiesce point; publishing here keeps the
    // shared log current whenever no instrumented code is on this thread's
    // stack.
    if (d <= 1 && t.batch.pending()) t.batch.flush(*log);
    count_published(t);
  }
  t.in_hook = false;
}

u64 current_tid() { return tid_of(thread_state()); }

int capture_own_stack(u64* out, int max, u64* tid) {
  ThreadState* t = t_created_state;
  if (!t) {
    *tid = ~0ull;
    return 0;
  }
  *tid = tid_of(*t);
  int d = t->stack.depth.load(std::memory_order_acquire);
  if (d > ShadowStack::kMaxDepth) d = ShadowStack::kMaxDepth;
  if (d > max) d = max;
  for (int i = 0; i < d; ++i) out[i] = t->stack.frames[i];
  return d;
}

void seen_addresses(std::vector<u64>* out) {
  for (usize i = 0; i < kSeenSlots; ++i) {
    u64 a = g_seen_addrs[i].load(std::memory_order_relaxed);
    if (a != 0) out->push_back(a);
  }
}

void reset_thread_for_test() {
  ThreadState& t = thread_state();
  t.tid = ~0ull;
  t.in_hook = false;
  t.obs_entries = nullptr;
  t.obs_epoch = 0;
  t.stack.depth.store(0, std::memory_order_release);
  t.batch.abandon();
  for (usize i = 0; i < ThreadState::kAddrCacheSize; ++i) t.addr_cache[i] = 0;
}

bool thread_state_created_for_test() { return t_created_state != nullptr; }

void reset_seen_addresses_for_test() {
  for (usize i = 0; i < kSeenSlots; ++i) {
    g_seen_addrs[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace teeperf::runtime
