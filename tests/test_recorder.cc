// Tests for the recorder (stage #2): runtime hooks, scopes, filters,
// dynamic activation, multithreaded recording, dump/load round trip.
#include <gtest/gtest.h>

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analyzer/query.h"
#include "common/fileutil.h"
#include "common/spin.h"
#include "common/stringutil.h"
#include "core/profiler.h"
#include "drain/drainer.h"
#include "obs/metric_names.h"

namespace teeperf {
namespace {

// The recorded entries: every shard's window, in directory order.
std::vector<LogEntry> recorded(const Recorder& rec) {
  std::vector<LogEntry> out;
  rec.log().snapshot_ordered(&out);
  return out;
}

// RAII: every test leaves the global runtime detached.
class RecorderTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (runtime::attached()) runtime::detach();
    runtime::reset_thread_for_test();
  }

  std::unique_ptr<Recorder> make(RecorderOptions opts = {}) {
    opts.counter_mode = CounterMode::kSteadyClock;
    auto rec = Recorder::create(opts);
    EXPECT_NE(rec, nullptr);
    return rec;
  }
};

TEST_F(RecorderTest, CreateFormatsLog) {
  auto rec = make();
  EXPECT_TRUE(rec->log().valid());
  EXPECT_EQ(rec->log().size(), 0u);
  EXPECT_TRUE(rec->log().active());
  EXPECT_TRUE(rec->log().flags() & log_flags::kMultithread);
}

TEST_F(RecorderTest, ScopeEmitsCallAndReturn) {
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::work");
  {
    Scope s(id);
  }
  rec->detach();
  std::vector<LogEntry> e = recorded(*rec);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].kind(), EventKind::kCall);
  EXPECT_EQ(e[0].addr, id);
  EXPECT_EQ(e[1].kind(), EventKind::kReturn);
  EXPECT_EQ(e[1].addr, id);
  EXPECT_GE(e[1].counter(), e[0].counter());
}

TEST_F(RecorderTest, NoEventsWhenDetached) {
  auto rec = make();
  u64 id = SymbolRegistry::instance().intern("unit::ignored");
  {
    Scope s(id);
  }
  EXPECT_EQ(rec->log().size(), 0u);
}

TEST_F(RecorderTest, OnlyOneSessionAtATime) {
  auto rec1 = make();
  auto rec2 = make();
  ASSERT_TRUE(rec1->attach());
  EXPECT_FALSE(rec2->attach());
  rec1->detach();
  EXPECT_TRUE(rec2->attach());
}

TEST_F(RecorderTest, DynamicStartStop) {
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::toggled");

  rec->stop();
  { Scope s(id); }
  EXPECT_EQ(rec->log().size(), 0u);

  rec->start();
  { Scope s(id); }
  EXPECT_EQ(rec->log().size(), 2u);

  rec->stop();
  { Scope s(id); }
  EXPECT_EQ(rec->log().size(), 2u);
}

TEST_F(RecorderTest, RecordMaskSelectsEventKinds) {
  RecorderOptions opts;
  opts.record_returns = false;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::calls_only");
  { Scope s(id); }
  std::vector<LogEntry> e = recorded(*rec);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].kind(), EventKind::kCall);
}

TEST_F(RecorderTest, FilterAllowlist) {
  Filter filter(Filter::Mode::kAllowlist);
  u64 wanted = filter.add_name("unit::wanted");
  u64 unwanted = SymbolRegistry::instance().intern("unit::unwanted");

  RecorderOptions opts;
  opts.filter = &filter;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  {
    Scope a(wanted);
    Scope b(unwanted);
  }
  rec->detach();
  std::vector<LogEntry> e = recorded(*rec);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].addr, wanted);
  EXPECT_EQ(e[1].addr, wanted);
}

TEST_F(RecorderTest, FilterDenylist) {
  Filter filter(Filter::Mode::kDenylist);
  u64 noisy = filter.add_name("unit::noisy");
  u64 kept = SymbolRegistry::instance().intern("unit::kept");

  RecorderOptions opts;
  opts.filter = &filter;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  {
    Scope a(noisy);
    Scope b(kept);
  }
  rec->detach();
  std::vector<LogEntry> e = recorded(*rec);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0].addr, kept);
}

TEST_F(RecorderTest, TeeperfScopeMacroRegistersName) {
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("unit::macro_scope");
  }
  rec->detach();
  std::vector<LogEntry> e = recorded(*rec);
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(SymbolRegistry::instance().name_of(e[0].addr), "unit::macro_scope");
}

// Four threads of perfectly nested scopes, checked per thread by walking
// every shard's written window. Reading the raw entry array instead walks
// unwritten slots between shard segments as tid-0 calls.
void check_multithreaded_order(std::unique_ptr<Recorder> rec) {
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());

  u64 outer = SymbolRegistry::instance().intern("mt::outer");
  u64 inner = SymbolRegistry::instance().intern("mt::inner");

  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Scope a(outer);
        Scope b(inner);
      }
    });
  }
  for (auto& th : threads) th.join();
  rec->detach();

  // Per thread: perfectly nested call/return sequences.
  std::map<u64, int> depth;
  std::map<u64, u64> events;
  const ProfileLog& log = rec->log();
  for (u32 s = 0; s < log.shard_count(); ++s) {
    LogWindow w = log.window(s);
    for (u64 i = 0; i < w.size(); ++i) {
      const LogEntry& e = w[i];
      EXPECT_EQ(log.shard_of(e.tid), s) << "entry landed in a foreign shard";
      int& d = depth[e.tid];
      if (e.kind() == EventKind::kCall) {
        ++d;
        EXPECT_LE(d, 2);
      } else {
        --d;
        EXPECT_GE(d, 0);
      }
      ++events[e.tid];
    }
  }
  for (auto& [tid, d] : depth) EXPECT_EQ(d, 0) << "tid " << tid;
  EXPECT_EQ(events.size(), static_cast<usize>(kThreads));
  for (auto& [tid, n] : events) EXPECT_EQ(n, kIters * 4u) << "tid " << tid;
}

TEST_F(RecorderTest, MultithreadedRecordingKeepsPerThreadOrder) {
  RecorderOptions opts;
  opts.max_entries = 1u << 16;  // auto shards: as many as the host suggests
  check_multithreaded_order(make(opts));
}

// The same check at fixed shard counts, so the result does not depend on
// how many cores the host has.
class RecorderShardsTest : public RecorderTest,
                           public ::testing::WithParamInterface<i32> {};

TEST_P(RecorderShardsTest, MultithreadedRecordingKeepsPerThreadOrder) {
  RecorderOptions opts;
  opts.max_entries = 1u << 16;
  opts.shards = GetParam();
  auto rec = make(opts);
  ASSERT_EQ(rec->log().shard_count(), static_cast<u32>(GetParam()));
  check_multithreaded_order(std::move(rec));
}

INSTANTIATE_TEST_SUITE_P(Shards, RecorderShardsTest, ::testing::Values(1, 4));

TEST(PickShardCount, ZeroMeansOneAndExplicitCountsClamp) {
  EXPECT_EQ(pick_shard_count(0, 1u << 20), 1u);
  EXPECT_EQ(pick_shard_count(1, 1u << 20), 1u);
  EXPECT_EQ(pick_shard_count(5, 1u << 20), 5u);
  EXPECT_EQ(pick_shard_count(1 << 20, 1u << 20), kMaxLogShards);
  // Auto keeps >= 1024 entries per shard, so a tiny log gets one shard.
  EXPECT_EQ(pick_shard_count(-1, 1024), 1u);
  u32 n = pick_shard_count(-1, 1u << 20);
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 64u);
  EXPECT_EQ(n & (n - 1), 0u) << "auto picks a power of two";
}

TEST_F(RecorderTest, ShardsZeroFormatsOneShard) {
  RecorderOptions opts;
  opts.shards = 0;
  auto rec = make(opts);
  EXPECT_EQ(rec->log().shard_count(), 1u);
  EXPECT_EQ(rec->stats().shards, 1u);
}

TEST_F(RecorderTest, StatsCountDrops) {
  RecorderOptions opts;
  opts.max_entries = 4;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  u64 id = SymbolRegistry::instance().intern("unit::flood");
  for (int i = 0; i < 10; ++i) {
    Scope s(id);
  }
  rec->detach();
  auto st = rec->stats();
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.capacity, 4u);
  EXPECT_EQ(st.dropped, 16u);
}

TEST_F(RecorderTest, DumpAndLoadRoundTrip) {
  std::string dir = make_temp_dir("teeperf_rec_");
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("dump::parent");
    TEEPERF_SCOPE("dump::child");
  }
  rec->detach();
  ASSERT_TRUE(rec->dump(dir + "/run"));
  EXPECT_TRUE(file_exists(dir + "/run.log"));
  EXPECT_TRUE(file_exists(dir + "/run.sym"));

  auto profile = analyzer::InvocationTable::load(dir + "/run");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->recon_stats().entries, 4u);
  ASSERT_EQ(profile->invocations().size(), 2u);
  EXPECT_EQ(profile->name(profile->invocations()[0].method), "dump::parent");
  EXPECT_EQ(profile->name(profile->invocations()[1].method), "dump::child");
  EXPECT_GT(profile->ns_per_tick(), 0.0);
  remove_tree(dir);
}

// Raw -finstrument-functions-style addresses: exported libc functions, so
// dladdr has names for them.
std::vector<u64> raw_function_addresses() {
  return {reinterpret_cast<u64>(&::getpid), reinterpret_cast<u64>(&::getppid),
          reinterpret_cast<u64>(&::sched_yield)};
}

// Every raw address must have a .sym line that dladdr named.
void expect_symbolized(const std::string& sym_path,
                       const std::vector<u64>& addrs) {
  auto sym = read_file(sym_path);
  ASSERT_TRUE(sym.has_value());
  auto names = SymbolRegistry::parse(*sym);
  for (u64 a : addrs) {
    auto it = names.find(a);
    ASSERT_NE(it, names.end()) << "no .sym line for 0x" << std::hex << a;
    EXPECT_NE(it->second.rfind("0x", 0), 0u) << it->second;
  }
}

TEST_F(RecorderTest, SymbolFileNamesRawAddressesFromTheWindow) {
  // With the first-sight table and the thread's address cache cleared, the
  // window scan is the only source that still knows the raw addresses.
  std::string dir = make_temp_dir("teeperf_symwin_");
  auto rec = make();
  ASSERT_TRUE(rec->attach());
  std::vector<u64> addrs = raw_function_addresses();
  for (u64 a : addrs) {
    runtime::on_enter(a);
    runtime::on_exit(a);
  }
  rec->detach();
  runtime::reset_seen_addresses_for_test();
  runtime::reset_thread_for_test();
  std::vector<u64> seen;
  runtime::seen_addresses(&seen);
  ASSERT_TRUE(seen.empty());
  ASSERT_EQ(rec->log().size(), 2 * addrs.size());

  ASSERT_TRUE(rec->dump(dir + "/run"));
  expect_symbolized(dir + "/run.sym", addrs);
  remove_tree(dir);
}

TEST_F(RecorderTest, SymbolFileNamesAddressesDrainedOutOfTheWindow) {
  // A spill session whose drainer consumed every entry leaves an empty
  // window, so only the first-sight table still knows the raw addresses.
  std::string dir = make_temp_dir("teeperf_symdrain_");
  RecorderOptions opts;
  opts.max_entries = 4096;
  opts.shards = 0;
  opts.spill_drain = true;
  opts.telemetry = false;
  opts.publish_session = false;
  auto rec = make(opts);
  runtime::reset_seen_addresses_for_test();
  ASSERT_TRUE(rec->attach());
  std::vector<u64> addrs = raw_function_addresses();
  for (u64 a : addrs) {
    runtime::on_enter(a);
    runtime::on_exit(a);
  }
  rec->detach();
  drain::DrainerOptions dopts;
  dopts.prefix = dir + "/run";
  drain::Drainer drainer(&rec->log(), dopts);
  ASSERT_TRUE(drainer.start());
  ASSERT_TRUE(drainer.final_drain());
  ASSERT_EQ(drainer.stats().drained_entries, 2 * addrs.size());
  ASSERT_EQ(rec->log().size(), 0u);

  ASSERT_TRUE(rec->dump(dir + "/run"));
  expect_symbolized(dir + "/run.sym", addrs);
  remove_tree(dir);
}

long max_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

TEST_F(RecorderTest, DumpAllocatesNoWindowCopy) {
  // A full 1M-entry window is 32 MiB of shm. dump() writes it to the file
  // and symbolizes it in place, so the dump must not raise peak RSS by
  // anything near the window; every staging copy would add 32 MiB. A
  // forked child does the work, so the peak it reads is its own.
  constexpr long kMarginKib = 4 << 10;
  constexpr u64 kEntries = 1u << 20;
  std::string dir = make_temp_dir("teeperf_dumprss_");
  pid_t pid = fork();
  if (pid == 0) {
    RecorderOptions opts;
    opts.max_entries = kEntries;
    opts.shards = 0;
    opts.telemetry = false;
    opts.publish_session = false;
    auto rec = make(opts);
    u64 id = SymbolRegistry::instance().intern("rss::work");
    LogBatch batch;
    for (u64 i = 0; i < kEntries; ++i) {
      batch.record(rec->log(), i % 2 ? EventKind::kReturn : EventKind::kCall,
                   id, /*tid=*/0, i + 1);
    }
    batch.flush(rec->log());
    EXPECT_EQ(rec->log().size(), kEntries);
    long before = max_rss_kib();
    EXPECT_TRUE(rec->dump(dir + "/run"));
    long grew = max_rss_kib() - before;
    EXPECT_LE(grew, kMarginKib)
        << "dumping a 32 MiB window raised peak RSS by " << grew << " KiB";
    struct stat st {};
    EXPECT_EQ(stat((dir + "/run.log").c_str(), &st), 0);
    EXPECT_EQ(static_cast<usize>(st.st_size), ProfileLog::bytes_for(kEntries));
    _exit(HasFailure() ? 1 : 0);
  }
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  remove_tree(dir);
}

TEST_F(RecorderTest, NamedShmSession) {
  RecorderOptions opts;
  opts.shm_name = "/teeperf_rec_" + std::to_string(::getpid());
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("shm::scoped");
  }
  rec->detach();
  EXPECT_EQ(rec->log().size(), 2u);

  // A second process-side mapping sees the same entries.
  SharedMemoryRegion view;
  ASSERT_TRUE(view.open(opts.shm_name));
  ProfileLog adopted;
  ASSERT_TRUE(adopted.adopt(view.data(), view.size()));
  EXPECT_EQ(adopted.size(), 2u);
}

TEST_F(RecorderTest, SoftwareCounterSessionRecords) {
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSoftware;
  opts.software_counter_yield = 1024;  // single-core safety
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  for (int i = 0; i < 50; ++i) {
    TEEPERF_SCOPE("swc::tick");
    std::this_thread::yield();
  }
  rec->detach();
  std::vector<LogEntry> e = recorded(*rec);
  ASSERT_EQ(e.size(), 100u);
  // The counter must have advanced across the run (monotone overall).
  EXPECT_GE(e[99].counter(), e[0].counter());
}

TEST_F(RecorderTest, OneCounterReplicaIsTheSingleCounter) {
  // The replica count alone shapes the counter: 0 and 1 build the same
  // session, one tick thread and no replica block.
  for (u32 replicas : {0u, 1u}) {
    RecorderOptions opts;
    opts.counter_mode = CounterMode::kSoftware;
    opts.counter_replicas = replicas;
    opts.software_counter_yield = 1024;  // single-core safety
    auto rec = Recorder::create(opts);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->log().counter_replica_count(), 0u) << replicas;
    EXPECT_EQ(rec->log().replica_directory(), nullptr) << replicas;
    ASSERT_TRUE(rec->attach());
    u64 deadline = monotonic_ns() + 2'000'000'000ull;
    while (rec->log().header()->counter.load(std::memory_order_relaxed) == 0 &&
           monotonic_ns() < deadline) {
      std::this_thread::yield();
    }
    rec->detach();
    EXPECT_GT(rec->log().header()->counter.load(std::memory_order_relaxed), 0u)
        << replicas;
    EXPECT_EQ(rec->stats().counter_replicas, 0u) << replicas;
  }
}

TEST_F(RecorderTest, DumpAfterDetachKeepsSoftwareCounterCalibration) {
  // detach() stops the software counter, so dump() can no longer measure
  // it; it must write the finished run's calibration instead of calibrating
  // a stopped counter into ns_per_tick = 0.
  RecorderOptions opts;
  opts.counter_mode = CounterMode::kSoftware;
  opts.software_counter_yield = 1024;  // single-core safety
  auto rec = Recorder::create(opts);
  ASSERT_NE(rec, nullptr);
  u64 t0 = monotonic_ns();
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("swc::calibrated");
    spin_for_ns(20'000'000);
  }
  rec->detach();
  double bracket_ns = static_cast<double>(monotonic_ns() - t0);

  std::string dir = make_temp_dir("teeperf_calib_");
  ASSERT_TRUE(rec->dump(dir + "/run"));
  remove_tree(dir);
  double ns_per_tick = rec->log().header()->ns_per_tick;
  ASSERT_GT(ns_per_tick, 0.0);
  // Σdt/Σdc from start() to stop(): the counter word started at 0, so
  // ticks × ns_per_tick is the counter's calibrated run time, which lies
  // inside attach()..detach() and spans most of the spin.
  double ticks = static_cast<double>(
      rec->log().header()->counter.load(std::memory_order_relaxed));
  double run_ns = ticks * ns_per_tick;
  EXPECT_LE(run_ns, bracket_ns + 1000.0);
  EXPECT_GE(run_ns, 10'000'000.0);
}

TEST_F(RecorderTest, TelemetryCountsEntriesHandedToTheLog) {
  // app.thread.<tid>.entries grows once per batch publish by the entries
  // published, so mid-session a cell trails its threads' recorded events by
  // less than a batch, and once every thread has exited — one while active
  // with a pending batch, the rest after a mid-session stop() — the cells
  // sum to exactly the entries the log was handed.
  RecorderOptions opts;
  opts.max_entries = 1u << 16;
  auto rec = make(opts);
  ASSERT_TRUE(rec->attach());
  obs::MetricsRegistry& reg = rec->telemetry()->registry();

  u64 outer = SymbolRegistry::instance().intern("telemetry::outer");
  u64 inner = SymbolRegistry::instance().intern("telemetry::inner");
  constexpr int kThreads = 3;
  constexpr u64 kInner = 45;  // 1 + 2 × 45 = 91 events: a partial batch
  constexpr u64 kRecorded = 1 + 2 * kInner;
  std::atomic<int> parked{0};
  std::atomic<int> stage{0};
  u64 tids[kThreads] = {};
  auto wait_for = [&](int s) {
    while (stage.load(std::memory_order_acquire) < s) std::this_thread::yield();
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      tids[i] = runtime::current_tid();
      // Entered but never exited here, so no depth-0 return publishes.
      runtime::on_enter(outer);
      for (u64 n = 0; n < kInner; ++n) Scope s(inner);
      parked.fetch_add(1, std::memory_order_release);
      // Thread 0 exits now, still active, with a pending batch: its
      // thread-exit flush publishes it.
      if (i == 0) {
        wait_for(1);
        return;
      }
      // The rest resume after stop(): their first unrecorded event
      // publishes the pending batch.
      wait_for(2);
      for (u64 n = 0; n < kInner; ++n) Scope s(inner);
      runtime::on_exit(outer);
    });
  }
  while (parked.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }

  // Mid-session: each cell has seen published batches only; the partial
  // batch each thread holds is not counted yet. Tids past the per-thread
  // range share one overflow cell.
  std::map<std::string, u64> recorded_by_cell;
  std::map<std::string, u64> threads_by_cell;
  for (u64 tid : tids) {
    std::string name =
        tid < 32 ? str_format(obs::metric_names::kAppThreadEntriesFmt,
                              static_cast<unsigned long long>(tid))
                 : obs::metric_names::kAppThreadOtherEntries;
    recorded_by_cell[name] += kRecorded;
    threads_by_cell[name] += 1;
  }
  for (const auto& [name, recorded] : recorded_by_cell) {
    u64 counted = reg.counter(name).value();
    EXPECT_LT(counted, recorded) << name;
    EXPECT_LT(recorded - counted, threads_by_cell[name] * LogBatch::kCapacity)
        << name;
  }

  stage.store(1, std::memory_order_release);
  threads[0].join();
  rec->stop();
  stage.store(2, std::memory_order_release);
  for (int i = 1; i < kThreads; ++i) threads[i].join();

  u64 sum = 0;
  reg.visit_scalars([&](const obs::MetricSlot& slot) {
    std::string_view name(slot.name, strnlen(slot.name, sizeof(slot.name)));
    if (starts_with(name, "app.thread.") && ends_with(name, ".entries")) {
      sum += slot.value.load(std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(rec->log().attempted(), kThreads * kRecorded);
  EXPECT_EQ(sum, rec->log().attempted());
  EXPECT_EQ(rec->log().dropped(), 0u);
  rec->detach();
}

}  // namespace
}  // namespace teeperf
