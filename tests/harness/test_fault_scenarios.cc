// End-to-end fault-injection scenarios (see TESTING.md): processes die
// mid-append, dumps arrive torn or bit-flipped, counters stall or jump
// backwards, shared memory shrinks, EPC runs out — and every layer above
// must degrade exactly as designed, deterministically per seed.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <cmath>

#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/shm.h"
#include "common/spin.h"
#include "core/profiler.h"
#include "faultsim/fault.h"
#include "obs/metric_names.h"
#include "obs/session.h"
#include "obs/watchdog.h"
#include "tee/enclave.h"
#include "tee/epc.h"
#include "tests/row_rollup.h"

namespace teeperf {
namespace {

class FaultScenarioTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::Registry::instance().reset();
    if (runtime::attached()) runtime::detach();
    runtime::reset_thread_for_test();
  }
};

// A deterministic balanced call/return script for direct log appends.
struct ScriptEntry {
  EventKind kind;
  u64 addr;
  u64 tid;
  u64 counter;
};

std::vector<ScriptEntry> make_script() {
  std::vector<ScriptEntry> script;
  u64 c = 100;
  for (u64 rep = 0; rep < 16; ++rep) {
    u64 tid = rep % 2;
    script.push_back({EventKind::kCall, 0xA000 + rep % 3, tid, c += 7});
    script.push_back({EventKind::kCall, 0xB000, tid, c += 7});
    script.push_back({EventKind::kReturn, 0xB000, tid, c += 7});
    script.push_back({EventKind::kReturn, 0xA000 + rep % 3, tid, c += 7});
  }
  return script;
}

// --- kill mid-append --------------------------------------------------------

// A writer SIGKILLed between the tail fetch-and-add and the entry stores —
// by the production per-event append path itself, at a seeded point —
// leaves exactly one reserved-but-empty slot. The analyzer must recover the
// full prefix and account for the tombstone. The log has one shard, so
// every thread's appends share one tail, as in the paper's Figure 2.
// Deterministic per seed.
class KillMidAppendTest : public FaultScenarioTest,
                          public ::testing::WithParamInterface<u64> {};

TEST_P(KillMidAppendTest, AnalyzerRecoversValidPrefix) {
  const u64 seed = GetParam();
  const std::vector<ScriptEntry> script = make_script();
  // The fatal append, derived from the seed: somewhere strictly inside the
  // script so there is both a prefix to recover and a suffix that is lost.
  const u64 fatal = 2 + (seed * 17) % (script.size() - 4);

  SharedMemoryRegion shm;
  ASSERT_TRUE(
      shm.create_anonymous(ProfileLog::bytes_for(script.size() + 8, 1)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 1234,
                       log_flags::kActive | log_flags::kRecordCalls |
                           log_flags::kRecordReturns | log_flags::kMultithread,
                       1));

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: arm the production fault point and replay the script. The
    // fetch-and-add for append `fatal` (1-based: hit `fatal`) happens, then
    // the process dies before the entry stores.
    fault::Spec s;
    s.mode = fault::Mode::kNth;
    s.n = fatal;
    fault::Registry::instance().set_seed(seed);
    fault::Registry::instance().arm("log.append.die", s);
    for (const ScriptEntry& e : script) {
      log.append(e.kind, e.addr, e.tid, e.counter);
    }
    _exit(0);  // unreachable if the fault fired
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child should die at append " << fatal;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The slot was reserved but never filled: the window is [0, fatal) and
  // its last slot is zero.
  LogWindow w = log.window(0);
  ASSERT_EQ(w.begin, 0u);
  ASSERT_EQ(w.end, fatal);
  const LogEntry& torn = w[fatal - 1];
  EXPECT_EQ(torn.kind_and_counter, 0u);
  EXPECT_EQ(torn.addr, 0u);
  EXPECT_EQ(log.count_torn_tail(), 1u);

  // The complete prefix is byte-identical to the script.
  for (u64 i = 0; i + 1 < fatal; ++i) {
    EXPECT_EQ(w[i].addr, script[i].addr) << "entry " << i;
    EXPECT_EQ(w[i].tid, script[i].tid) << "entry " << i;
    EXPECT_EQ(w[i].counter(), script[i].counter) << "entry " << i;
  }

  // The analyzer consumes the prefix and reports the tombstone instead of
  // inventing a phantom invocation of method 0.
  auto profile = analyzer::InvocationTable::from_log(log, {}, 1.0);
  EXPECT_EQ(profile.recon_stats().entries, fatal);
  EXPECT_EQ(profile.recon_stats().tombstones, 1u);

  // Reference replay: the same prefix appended by a healthy writer yields
  // an identical reconstruction.
  SharedMemoryRegion ref_shm;
  ASSERT_TRUE(
      ref_shm.create_anonymous(ProfileLog::bytes_for(script.size() + 8, 1)));
  ProfileLog ref_log;
  ASSERT_TRUE(ref_log.init(ref_shm.data(), ref_shm.size(), 1234, log.flags(),
                           1));
  for (u64 i = 0; i + 1 < fatal; ++i) {
    ref_log.append(script[i].kind, script[i].addr, script[i].tid,
                   script[i].counter);
  }
  auto ref = analyzer::InvocationTable::from_log(ref_log, {}, 1.0);
  ASSERT_EQ(profile.invocations().size(), ref.invocations().size());
  for (usize i = 0; i < ref.invocations().size(); ++i) {
    EXPECT_EQ(profile.invocations()[i].method, ref.invocations()[i].method);
    EXPECT_EQ(profile.invocations()[i].start, ref.invocations()[i].start);
    EXPECT_EQ(profile.invocations()[i].end, ref.invocations()[i].end);
    EXPECT_EQ(profile.invocations()[i].tid, ref.invocations()[i].tid);
  }
  EXPECT_EQ(profile.recon_stats().incomplete, ref.recon_stats().incomplete);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KillMidAppendTest, ::testing::Values(1, 2, 3));

// --- kill mid batch flush ---------------------------------------------------

// The v2 analogue: a batched writer SIGKILLed by `log.flush.die` after the
// shard-tail reservation but before any of the batch's stores. The whole
// reserved window — up to a full batch — stays zero, and the per-shard
// torn-tail scan must account for every slot of it while the other shard's
// completed flushes survive intact.
class KillMidBatchFlushTest : public FaultScenarioTest,
                              public ::testing::WithParamInterface<u64> {};

TEST_P(KillMidBatchFlushTest, PerShardTornTailAccountsWholeBatch) {
  const u64 seed = GetParam();
  // nth=1 kills the first auto-flush (tid 0's full batch, nothing stored
  // yet); nth=2 kills the second (tid 1's batch, after tid 0's survived).
  const u64 fatal_flush = 1 + (seed % 2);
  const u64 dying_tid = fatal_flush - 1;
  const std::vector<ScriptEntry> script = make_script();

  SharedMemoryRegion shm;
  ASSERT_TRUE(shm.create_anonymous(ProfileLog::bytes_for(256, 2)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 1234,
                       log_flags::kActive | log_flags::kRecordCalls |
                           log_flags::kRecordReturns | log_flags::kMultithread,
                       2));
  ASSERT_EQ(log.shard_count(), 2u);

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    fault::Spec s;
    s.mode = fault::Mode::kNth;
    s.n = fatal_flush;
    fault::Registry::instance().set_seed(seed);
    fault::Registry::instance().arm("log.flush.die", s);
    // One batch per thread, as the runtime keeps them. Each tid records 32
    // events — exactly one full-batch auto-flush per tid, in tid order.
    LogBatch batches[2];
    for (const ScriptEntry& e : script) {
      batches[e.tid].record(log, e.kind, e.addr, e.tid, e.counter);
    }
    for (LogBatch& b : batches) b.flush(log);
    _exit(0);  // unreachable: flush `fatal_flush` dies mid-publication
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child should die at flush " << fatal_flush;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The dying shard reserved a whole batch and stored none of it; the other
  // shard holds exactly its completed flushes.
  const u32 dead_shard = log.shard_of(dying_tid);
  const u32 live_shard = 1 - dead_shard;
  EXPECT_EQ(log.shard(dead_shard)->tail.load(std::memory_order_acquire), 32u);
  EXPECT_EQ(log.shard_torn_tail(dead_shard), 32u);
  EXPECT_EQ(log.shard(live_shard)->tail.load(std::memory_order_acquire),
            fatal_flush == 1 ? 0u : 32u);
  EXPECT_EQ(log.shard_torn_tail(live_shard), 0u);
  EXPECT_EQ(log.count_torn_tail(), 32u);

  // The analyzer consumes the surviving shard and accounts every torn slot.
  auto profile = analyzer::InvocationTable::from_log(log, {}, 1.0);
  EXPECT_EQ(profile.recon_stats().tombstones, 32u);

  // Reference replay of the surviving thread's events (balanced calls and
  // returns, so reconstruction is exact).
  SharedMemoryRegion ref_shm;
  ASSERT_TRUE(ref_shm.create_anonymous(ProfileLog::bytes_for(256, 1)));
  ProfileLog ref_log;
  ASSERT_TRUE(
      ref_log.init(ref_shm.data(), ref_shm.size(), 1234, log.flags(), 1));
  for (const ScriptEntry& e : script) {
    if (fatal_flush == 2 && e.tid != dying_tid) {
      ref_log.append(e.kind, e.addr, e.tid, e.counter);
    }
  }
  auto ref = analyzer::InvocationTable::from_log(ref_log, {}, 1.0);
  ASSERT_EQ(profile.invocations().size(), ref.invocations().size());
  for (usize i = 0; i < ref.invocations().size(); ++i) {
    EXPECT_EQ(profile.invocations()[i].method, ref.invocations()[i].method);
    EXPECT_EQ(profile.invocations()[i].start, ref.invocations()[i].start);
    EXPECT_EQ(profile.invocations()[i].end, ref.invocations()[i].end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KillMidBatchFlushTest, ::testing::Values(1, 2, 3));

// --- ring-wrap torn tail ----------------------------------------------------

// Regression for the ring-mode torn-tail scan: once a ring shard's tail has
// passed capacity, the newest entry lives at (tail - 1) % capacity, not at
// capacity - 1. The old scan indexed from the clamped tail, so after a wrap
// it walked the top of the physical segment — reporting phantom tombstones
// for a fully stored newest window and missing the real torn batch behind
// it.
class RingWrapTornTailTest : public FaultScenarioTest,
                             public ::testing::WithParamInterface<u64> {};

TEST_P(RingWrapTornTailTest, WrappedWindowScansPhysicalSlots) {
  const u64 seed = GetParam();
  constexpr u64 kCap = 64;
  constexpr u64 kTid = 7;

  SharedMemoryRegion shm;
  ASSERT_TRUE(shm.create_anonymous(ProfileLog::bytes_for(kCap, 1)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 1234,
                       log_flags::kActive | log_flags::kRecordCalls |
                           log_flags::kRecordReturns |
                           log_flags::kMultithread | log_flags::kRingBuffer,
                       1));
  ASSERT_EQ(log.shard_count(), 1u);

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Flush 1 ([0, 32)) completes; flush 2 reserves [32, 64) and dies before
    // storing a single entry, leaving half the segment zero.
    fault::Spec s;
    s.mode = fault::Mode::kNth;
    s.n = 2;
    fault::Registry::instance().set_seed(seed);
    fault::Registry::instance().arm("log.flush.die", s);
    LogBatch b;
    u64 c = 100;
    for (u64 i = 0; i < kCap; ++i) {
      b.record(log, i % 2 == 0 ? EventKind::kCall : EventKind::kReturn,
               0xC000 + (i / 2) % 4, kTid, c += 3);
    }
    b.flush(log);
    _exit(0);  // unreachable: the final flush dies mid-publication
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_EQ(log.shard(0)->tail.load(std::memory_order_acquire), kCap);

  // A surviving writer keeps recording and wraps: the next flush reserves
  // [64, 96) and publishes it over physical slots [0, 32) as two spans.
  LogBatch survivor;
  u64 c = 1000;
  for (u64 i = 0; i < 32; ++i) {
    survivor.record(log, i % 2 == 0 ? EventKind::kCall : EventKind::kReturn,
                    0xD000, kTid, c += 3);
  }
  ASSERT_TRUE(survivor.flush(log));
  ASSERT_EQ(log.shard(0)->tail.load(std::memory_order_acquire), kCap + 32);

  // The live window is [tail - cap, tail) = [32, 96): the torn flush's 32
  // zero slots followed by the wrapped survivor. The default window covers
  // all of it...
  EXPECT_EQ(log.shard_torn_tail(0), 32u);
  EXPECT_EQ(log.count_torn_tail(~0ull), 32u);
  // ...while the newest 32 entries — physical slots [0, 32) after the wrap
  // — are fully stored. The pre-fix clamped scan walked slots [32, 64) here
  // and reported 32 phantom tombstones.
  EXPECT_EQ(log.shard_torn_tail(0, 32), 0u);

  // The wrapped span really landed at the low physical slots: the window
  // [32, 96) starts with the torn zeros at slots [32, 64) and ends with
  // the survivor's batch at slots [0, 32).
  LogWindow w = log.window(0);
  ASSERT_EQ(w.begin, 32u);
  ASSERT_EQ(w.end, kCap + 32);
  ASSERT_EQ(w.spans[0].size(), 32u);
  ASSERT_EQ(w.spans[1].size(), 32u);
  for (u64 i = 0; i < 32; ++i) {
    EXPECT_EQ(w[i].kind_and_counter, 0u) << "slot " << i;
    EXPECT_EQ(w[i + 32].addr, 0xD000u) << "slot " << (i + 32);
  }

  // The analyzer sees exactly the torn batch as tombstones.
  auto profile = analyzer::InvocationTable::from_log(log, {}, 1.0);
  EXPECT_EQ(profile.recon_stats().tombstones, 32u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingWrapTornTailTest, ::testing::Values(1, 2, 3));

// --- cross-process drop visibility ------------------------------------------

// The drop counter lives in the shared shard record, not in a process-local
// member: an app process overrunning a bounded log must surface its drops to
// the recorder process attached to the same region — and from there to the
// watchdog's log.dropped gauge.
TEST_F(FaultScenarioTest, DroppedCountIsVisibleAcrossProcesses) {
  constexpr u64 kCap = 8;
  constexpr u64 kAttempts = 20;
  SharedMemoryRegion shm;
  ASSERT_TRUE(shm.create_anonymous(ProfileLog::bytes_for(kCap, 1)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 1234,
                       log_flags::kActive | log_flags::kRecordCalls, 1));
  ASSERT_EQ(log.dropped(), 0u);

  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // App side: overruns the bounded log by 12 appends, then exits cleanly.
    for (u64 i = 0; i < kAttempts; ++i) {
      log.append(EventKind::kCall, 0xA000, 0, 100 + i);
    }
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Recorder side: the same mapping reads the shard word the child bumped.
  // A process-local counter would read 0 here.
  EXPECT_EQ(log.dropped(), kAttempts - kCap);
  EXPECT_EQ(log.window(0).size(), kCap);

  // And the watchdog publishes it: one observe tick turns the sample into
  // the log.dropped gauge the exporters scrape.
  obs::TelemetryOptions topts;  // no shm_name → anonymous region
  auto t = obs::SelfTelemetry::create(topts);
  ASSERT_NE(t, nullptr);
  obs::Watchdog wd(&t->registry(), &t->journal(), nullptr, "test",
                   /*interval_ms=*/1);
  wd.watch_log([&] {
    obs::LogSample s;
    s.tail = log.size();
    s.capacity = kCap;
    s.active = true;
    s.dropped = log.dropped();
    return s;
  });
  wd.start();
  for (int i = 0; i < 2000 && wd.ticks() < 2; ++i) usleep(1000);
  wd.stop();
  EXPECT_EQ(t->registry().gauge(obs::metric_names::kLogDropped).value(),
            kAttempts - kCap);
}

// --- shard allocation failure ----------------------------------------------

TEST_F(FaultScenarioTest, ShardAllocFailMakesShardedInitFail) {
  std::vector<u8> buf(ProfileLog::bytes_for(1024, 4));
  for (u32 shards : {4u, 1u}) {
    // The directory carve-out fails: init reports it, nothing is adopted.
    // Every log has a directory, down to the single shared tail.
    fault::ScopedFault f("log.shard.alloc.fail:nth=1");
    ProfileLog log;
    EXPECT_FALSE(log.init(buf.data(), buf.size(), 42,
                          log_flags::kActive | log_flags::kMultithread, shards))
        << shards;
    EXPECT_FALSE(log.valid());
  }
  {
    // Only the armed hit fails: the next init formats normally.
    fault::ScopedFault f("log.shard.alloc.fail:nth=1");
    ProfileLog log;
    EXPECT_FALSE(log.init(buf.data(), buf.size(), 42, log_flags::kActive, 4));
    EXPECT_TRUE(log.init(buf.data(), buf.size(), 42, log_flags::kActive, 4));
  }
  // And the recorder surfaces the failure as a failed create.
  fault::ScopedFault f("log.shard.alloc.fail:nth=1");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  opts.shards = 4;
  EXPECT_EQ(Recorder::create(opts), nullptr);
}

// --- torn / bit-flipped dumps ----------------------------------------------

TEST_F(FaultScenarioTest, TornDumpLoadsPrefixOrRejectsCleanly) {
  std::string dir = make_temp_dir("teeperf_torn_");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  for (int i = 0; i < 10; ++i) {
    TEEPERF_SCOPE("torn::outer");
    TEEPERF_SCOPE("torn::inner");
  }
  rec->detach();

  // An intact dump for reference.
  ASSERT_TRUE(rec->dump(dir + "/ok"));
  auto intact = analyzer::InvocationTable::load(dir + "/ok");
  ASSERT_TRUE(intact.has_value());
  ASSERT_EQ(intact->invocations().size(), 20u);

  // Torn dumps across several seeds: the analyzer loads a strict prefix or
  // rejects the file — never crashes, never fabricates invocations.
  for (u64 seed = 1; seed <= 5; ++seed) {
    fault::Registry::instance().reset();
    fault::Registry::instance().set_seed(seed);
    fault::Registry::instance().arm_from_spec("dump.torn:nth=1");
    std::string prefix = dir + "/torn" + std::to_string(seed);
    rec->dump(prefix);  // may report failure; the file may be partial
    fault::Registry::instance().reset();
    auto loaded = analyzer::InvocationTable::load(prefix);
    auto agg = analyzer::StreamAnalyzer::analyze(prefix);
    ASSERT_EQ(agg.has_value(), loaded.has_value());
    if (loaded) {
      EXPECT_LE(loaded->invocations().size(), intact->invocations().size());
      EXPECT_LE(loaded->recon_stats().entries, intact->recon_stats().entries);
      agg->save();
    }
  }
  remove_tree(dir);
}

TEST_F(FaultScenarioTest, BitflippedDumpNeverCrashesAnalyzer) {
  std::string dir = make_temp_dir("teeperf_flip_");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  for (int i = 0; i < 8; ++i) {
    TEEPERF_SCOPE("flip::work");
  }
  rec->detach();
  ASSERT_TRUE(rec->dump(dir + "/base"));
  auto raw = read_file(dir + "/base.log");
  ASSERT_TRUE(raw.has_value());

  for (u64 seed = 1; seed <= 32; ++seed) {
    fault::Registry::instance().reset();
    fault::Registry::instance().set_seed(seed);
    fault::Registry::instance().arm_from_spec("dump.bitflip:nth=1");
    std::string mutant = *raw;
    ASSERT_TRUE(fault::apply_byte_faults("dump", &mutant));
    fault::Registry::instance().reset();
    // Either rejected or analyzed; both are fine, crashing is not.
    if (auto t = table_of_dump(mutant)) rollup(*t).save();
  }
  remove_tree(dir);
}

TEST_F(FaultScenarioTest, DumpFailFaultFailsDumpGracefully) {
  std::string dir = make_temp_dir("teeperf_dumpfail_");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  { TEEPERF_SCOPE("df::work"); }
  rec->detach();
  fault::ScopedFault f("dump.fail:nth=1");
  EXPECT_FALSE(rec->dump(dir + "/never"));
  EXPECT_FALSE(file_exists(dir + "/never.log"));
  remove_tree(dir);
}

// --- counter faults ---------------------------------------------------------

TEST_F(FaultScenarioTest, CounterStallTripsWatchdog) {
  // Freeze the software counter on its first batch; the watchdog must raise
  // the stall alarm that Recorder::stats() surfaces.
  fault::Registry::instance().arm_from_spec("counter.stall:nth=1");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSoftware;
  opts.software_counter_yield = 1024;
  opts.watchdog_interval_ms = 10;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  bool stalled = false;
  for (int i = 0; i < 200 && !stalled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stalled = rec->stats().counter_stalled;
  }
  rec->detach();
  EXPECT_TRUE(stalled);
}

TEST_F(FaultScenarioTest, CounterBackjumpDrivesCounterBackwards) {
  fault::Registry::instance().arm_from_spec("counter.backjump:nth=2,sticky");
  std::vector<u8> buf(ProfileLog::bytes_for(1024, 1));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 42, log_flags::kActive));
  LogHeader& header = *log.header();
  header.counter.store(1'000'000'000ull, std::memory_order_relaxed);
  CounterServiceOptions copts;
  copts.yield_every = 1024;
  CounterService counter(&log, CounterMode::kSoftware, copts);
  counter.start();
  // Sticky backjumps subtract more per batch than the batch adds, so the
  // shared word trends downwards — observable without racing a single jump.
  u64 c0 = header.counter.load(std::memory_order_relaxed);
  u64 c1 = c0;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c1 = header.counter.load(std::memory_order_relaxed);
    if (c1 < c0) break;
  }
  counter.stop();
  EXPECT_LT(c1, c0);
}

TEST_F(FaultScenarioTest, ValidateFlagsBackwardsCounter) {
  // The analyzer-side view of the same defect: a backwards counter within a
  // thread is a validation issue.
  std::vector<LogEntry> entries(3);
  entries[0].kind_and_counter = LogEntry::pack(EventKind::kCall, 100);
  entries[0].addr = 0x1;
  entries[1].kind_and_counter = LogEntry::pack(EventKind::kCall, 90);  // jump back
  entries[1].addr = 0x2;
  entries[2].kind_and_counter = LogEntry::pack(EventKind::kReturn, 95);
  entries[2].addr = 0x2;
  auto issues = analyzer::validate(entries.data(), entries.size());
  bool found = false;
  for (const auto& issue : issues) {
    if (issue.kind == analyzer::ValidationIssue::Kind::kNonMonotonicCounter) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- watchdog backjump handling ---------------------------------------------

// Regression for the unsigned-delta wrap: `dc = c - last` on a
// backwards-moving counter used to wrap to ~2^64, making the window look
// like an absurdly fast (≈1e-13 ns/tick) healthy window that fed the drift
// baseline and poisoned every later comparison. The classifier must instead
// call the window a backjump — its own journal event class and counter —
// and leave it out of the calibration entirely. Scripted windows: no clock,
// no thread.
class WatchdogBackjumpTest : public FaultScenarioTest,
                             public ::testing::WithParamInterface<u64> {};

TEST_P(WatchdogBackjumpTest, BackjumpIsJournaledAndExcludedFromBaseline) {
  const u64 seed = GetParam();
  obs::TelemetryOptions topts;  // anonymous region
  auto t = obs::SelfTelemetry::create(topts);
  ASSERT_NE(t, nullptr);
  obs::Watchdog wd(&t->registry(), &t->journal(), nullptr, "scripted",
                   /*interval_ms=*/1);
  CounterClassifier c;
  u64 val = 1'000'000, ns = 0;
  c.open(val, ns);
  auto advance = [&](int windows) {
    for (int i = 0; i < windows; ++i) {
      val += 10'000;
      ns += 2'000'000;
      wd.publish(c.observe(val, ns));
    }
  };
  advance(8);  // healthy windows; arms the drift check
  std::optional<double> before = c.ns_per_tick(val, ns);
  val -= 100'000 * seed;  // the backjump
  ns += 2'000'000;
  obs::CounterSample jump = c.observe(val, ns);
  wd.publish(jump);
  EXPECT_EQ(jump.verdict, obs::CounterVerdict::kBackjump);
  // The backjump window's time and (wrapped) ticks stay out.
  EXPECT_EQ(c.ns_per_tick(val, ns), before);
  advance(8);  // recovery: forward progress from the lower value

  EXPECT_EQ(t->registry()
                .counter(obs::metric_names::kWatchdogBackjumpEvents)
                .value(),
            1u);
  EXPECT_EQ(t->registry().gauge(obs::metric_names::kCounterStalled).value(),
            0u);
  // The wrapped window never reached the drift check.
  EXPECT_EQ(t->registry().counter(obs::metric_names::kWatchdogDriftEvents)
                .value(),
            0u);
  EXPECT_EQ(t->registry().gauge(obs::metric_names::kCounterDrifting).value(),
            0u);
  EXPECT_DOUBLE_EQ(*c.ns_per_tick(val, ns), 200.0);
  // Distinct journal event class, with the regressed value in arg0.
  int journaled = 0;
  for (const obs::Event& ev : t->journal().snapshot()) {
    if (ev.type == obs::EventType::kCounterBackjump) {
      ++journaled;
      EXPECT_LT(ev.arg0, ev.arg1);  // new value < previous value
      EXPECT_EQ(ev.arg1 - ev.arg0, 100'000 * seed);
    }
  }
  EXPECT_EQ(journaled, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatchdogBackjumpTest, ::testing::Values(1, 2, 3));

// --- replicated counter fail-over -------------------------------------------

// End-to-end (DESIGN.md §13): a session with three counter replicas whose
// elected primary is stalled by fault injection must fail over (gauge +
// journal event), keep the probe-visible timeline monotonic, and still
// produce a dump whose calibrated time agrees with the wall clock.
class ReplicatedCounterFailoverTest : public FaultScenarioTest,
                                      public ::testing::WithParamInterface<u64> {
};

TEST_P(ReplicatedCounterFailoverTest, PrimaryStallFailsOverCalibrated) {
  const u64 seed = GetParam();
  fault::Registry::instance().set_seed(seed);
  // nth varies the stall point across seeds: the Nth primary batch check.
  fault::Registry::instance().arm_from_spec("counter.stall.primary:nth=" +
                                            std::to_string(seed));
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSoftware;
  opts.counter_replicas = 3;
  opts.software_counter_yield = 1024;
  opts.watchdog_interval_ms = 10;
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->log().counter_replica_count(), 3u);
  ASSERT_TRUE(rec->attach());

  // The workload starts immediately, so the stall and the fail-over happen
  // mid-profile and the calibration span coincides with the measured wall
  // window (a separate wait phase would let the counter rate differ between
  // calibration and measurement and skew the estimate on a loaded machine).
  // The probe-visible header word must never move backwards across the
  // switch.
  u64 wall0 = monotonic_ns();
  u64 prev = 0;
  bool monotonic = true;
  for (int i = 0; i < 40; ++i) {
    TEEPERF_SCOPE("replicated::spin");
    spin_for_ns(5'000'000);
    u64 now = rec->log().header()->counter.load(std::memory_order_relaxed);
    if (now < prev) monotonic = false;
    prev = now;
  }
  double wall = static_cast<double>(monotonic_ns() - wall0);
  EXPECT_TRUE(monotonic);

  // The fail-over completed somewhere inside the workload (the primary's
  // stall fires within its first few tick batches).
  u64 deadline = monotonic_ns() + 10'000'000'000ull;
  while (rec->stats().counter_failovers == 0 && monotonic_ns() < deadline) {
    spin_for_ns(1'000'000);
  }
  Recorder::Stats stats = rec->stats();
  ASSERT_GE(stats.counter_failovers, 1u);
  EXPECT_EQ(stats.counter_replicas, 3u);

  // The watchdog publishes the fail-over; the journal carries the event.
  ASSERT_NE(rec->telemetry(), nullptr);
  deadline = monotonic_ns() + 5'000'000'000ull;
  while (rec->telemetry()
                 ->registry()
                 .gauge(obs::metric_names::kCounterFailover)
                 .value() == 0 &&
         monotonic_ns() < deadline) {
    spin_for_ns(1'000'000);
  }
  EXPECT_GE(rec->telemetry()
                ->registry()
                .gauge(obs::metric_names::kCounterFailover)
                .value(),
            1u);
  bool journaled = false;
  for (const obs::Event& ev : rec->telemetry()->journal().snapshot()) {
    if (ev.type == obs::EventType::kCounterFailover) journaled = true;
  }
  EXPECT_TRUE(journaled);

  // Dump while the replicated counter (and its running calibration) is
  // still alive, then check the calibrated report end to end.
  std::string dir = make_temp_dir("teeperf_replicated_");
  ASSERT_TRUE(rec->dump(dir + "/run"));
  rec->detach();

  auto agg = analyzer::StreamAnalyzer::analyze(dir + "/run");
  ASSERT_TRUE(agg.has_value());
  ASSERT_GT(agg->ns_per_tick, 0.0);
  // Monotonic timestamps survive reconstruction: no backwards counters.
  for (const auto& issue : analyzer::validate(rec->log())) {
    EXPECT_NE(issue.kind,
              analyzer::ValidationIssue::Kind::kNonMonotonicCounter);
  }
  double est = 0.0;
  if (auto it = agg->methods.find("replicated::spin"); it != agg->methods.end()) {
    est = static_cast<double>(it->second.inclusive_total) * agg->ns_per_tick;
  }
  ASSERT_GT(est, 0.0);
  // Calibrated time within 20% of the wall clock around the same loop.
  EXPECT_LE(std::fabs(est - wall) / wall, 0.20)
      << "calibrated " << est / 1e6 << " ms vs wall " << wall / 1e6 << " ms";
  remove_tree(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedCounterFailoverTest,
                         ::testing::Values(1, 2, 3));

// --- shared-memory faults ---------------------------------------------------

TEST_F(FaultScenarioTest, ShmCreateFailMakesRecorderCreateFail) {
  fault::ScopedFault f("shm.create.fail:nth=1");
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSteadyClock;
  opts.shm_name = "/teeperf_fault_create_" + std::to_string(::getpid());
  EXPECT_EQ(Recorder::create(opts), nullptr);
}

TEST_F(FaultScenarioTest, ShmOpenFailAndTruncationAreRejected) {
  std::string name = "/teeperf_fault_trunc_" + std::to_string(::getpid());
  SharedMemoryRegion creator;
  ASSERT_TRUE(creator.create(name, ProfileLog::bytes_for(1024)));
  ProfileLog log;
  ASSERT_TRUE(log.init(creator.data(), creator.size(), 42, 0));

  {  // Open failure: reported, not crashed.
    fault::ScopedFault f("shm.open.fail:nth=1");
    SharedMemoryRegion view;
    EXPECT_FALSE(view.open(name));
  }
  {  // Truncated mapping: adopt() sees a header whose max_entries no longer
     // fits the region and must refuse it.
    fault::ScopedFault f("shm.open.truncate:nth=1");
    SharedMemoryRegion view;
    ASSERT_TRUE(view.open(name));
    ASSERT_LT(view.size(), creator.size());
    ProfileLog adopted;
    EXPECT_FALSE(adopted.adopt(view.data(), view.size()));
  }
}

TEST_F(FaultScenarioTest, AdoptRejectsOverflowingHeaders) {
  // Hostile header fields that used to overflow the size check.
  std::vector<u8> buf(ProfileLog::bytes_for(4));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 42, 0));
  auto* header = reinterpret_cast<LogHeader*>(buf.data());

  header->max_entries = 1ull << 61;  // max_entries * 32 wraps u64
  ProfileLog adopted;
  EXPECT_FALSE(adopted.adopt(buf.data(), buf.size()));

  header->max_entries = 0;  // would divide-by-zero in ring append
  EXPECT_FALSE(adopted.adopt(buf.data(), buf.size()));

  header->max_entries = 4;  // restored: adoptable again
  EXPECT_TRUE(adopted.adopt(buf.data(), buf.size()));
}

// --- EPC exhaustion ---------------------------------------------------------

TEST_F(FaultScenarioTest, EpcAllocFailReturnsNull) {
  tee::Enclave e(tee::CostModel::zero());
  tee::EpcAllocator epc(&e, 8);
  fault::ScopedFault f("epc.alloc_fail:nth=1");
  EXPECT_EQ(epc.allocate(2 * tee::kEpcPageSize), nullptr);
  // One-shot: the next allocation succeeds.
  EXPECT_NE(epc.allocate(2 * tee::kEpcPageSize), nullptr);
}

TEST_F(FaultScenarioTest, EpcExhaustionMidProfileEvictsToOnePage) {
  tee::Enclave e(tee::CostModel::zero());
  tee::EpcAllocator epc(&e, 64);
  auto buf = epc.allocate(17 * tee::kEpcPageSize);
  ASSERT_NE(buf, nullptr);
  for (usize p = 0; p < 16; ++p) {
    buf->touch(p * tee::kEpcPageSize, 1, true);
  }
  ASSERT_EQ(epc.resident_count(), 16u);
  u64 outs_before = epc.page_outs();

  // Exhaustion strikes while paging in the 17th page: the resident limit
  // collapses to a single page and the CLOCK evictor pages everything else
  // out before admitting it.
  fault::ScopedFault f("epc.exhaust:nth=1");
  buf->touch(16 * tee::kEpcPageSize, 1, false);
  EXPECT_EQ(epc.resident_count(), 1u);
  EXPECT_GT(epc.page_outs(), outs_before);
}

}  // namespace
}  // namespace teeperf
