// Tests for the shared-memory region, the counter sources (including the
// paper's software counter thread) and the symbol registry.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/spin.h"
#include "core/counter.h"
#include "core/log_format.h"
#include "common/shm.h"
#include "core/symbol_registry.h"

namespace teeperf {
namespace {

// --- shared memory -----------------------------------------------------------

TEST(Shm, AnonymousCreate) {
  SharedMemoryRegion r;
  ASSERT_TRUE(r.create_anonymous(4096));
  EXPECT_TRUE(r.valid());
  EXPECT_EQ(r.size(), 4096u);
  std::memset(r.data(), 0x5a, 4096);
  EXPECT_EQ(static_cast<u8*>(r.data())[4095], 0x5a);
}

TEST(Shm, NamedCreateOpenSharesData) {
  std::string name = "/teeperf_test_" + std::to_string(getpid());
  SharedMemoryRegion writer;
  ASSERT_TRUE(writer.create(name, 8192));

  SharedMemoryRegion reader;
  ASSERT_TRUE(reader.open(name));
  EXPECT_EQ(reader.size(), 8192u);

  // Writes through one mapping are visible through the other — the TEE ↔
  // recorder communication channel.
  static_cast<u64*>(writer.data())[0] = 0xfeedface;
  EXPECT_EQ(static_cast<u64*>(reader.data())[0], 0xfeedfaceu);
}

TEST(Shm, CreateExclusiveRefusesDuplicate) {
  std::string name = "/teeperf_dup_" + std::to_string(getpid());
  SharedMemoryRegion a, b;
  ASSERT_TRUE(a.create(name, 4096));
  EXPECT_FALSE(b.create(name, 4096));
}

TEST(Shm, OpenMissingFails) {
  SharedMemoryRegion r;
  EXPECT_FALSE(r.open("/teeperf_does_not_exist_xyz"));
}

TEST(Shm, CreatorUnlinksOnClose) {
  std::string name = "/teeperf_unlink_" + std::to_string(getpid());
  {
    SharedMemoryRegion r;
    ASSERT_TRUE(r.create(name, 4096));
  }
  SharedMemoryRegion again;
  EXPECT_FALSE(again.open(name));
}

TEST(Shm, MoveTransfersOwnership) {
  SharedMemoryRegion a;
  ASSERT_TRUE(a.create_anonymous(4096));
  void* p = a.data();
  SharedMemoryRegion b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_FALSE(a.valid());
}

// --- counters ------------------------------------------------------------------

TEST(Counter, TscMonotonicNonDecreasing) {
  LogHeader h;
  u64 prev = read_counter(CounterMode::kTsc, &h);
  for (int i = 0; i < 100; ++i) {
    u64 now = read_counter(CounterMode::kTsc, &h);
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(Counter, SteadyClockAdvances) {
  LogHeader h;
  u64 a = read_counter(CounterMode::kSteadyClock, &h);
  spin_for_ns(100'000);
  u64 b = read_counter(CounterMode::kSteadyClock, &h);
  EXPECT_GT(b, a);
}

// A one-shard log with no replica block: the single-counter session.
struct CounterLog {
  std::vector<u8> buf = std::vector<u8>(ProfileLog::bytes_for(1024, 1));
  ProfileLog log;
  CounterLog() { log.init(buf.data(), buf.size(), 42, log_flags::kActive); }
};

TEST(Counter, NsPerTickSane) {
  // A hardware counter needs no spin at dump: the service calibrates the
  // window from start() to the dump.
  CounterLog l;
  CounterService tsc(&l.log, CounterMode::kTsc);
  tsc.start();
  spin_for_ns(2'000'000);
  std::optional<double> npt = tsc.ns_per_tick();
  tsc.stop();
  ASSERT_TRUE(npt.has_value());
  EXPECT_GT(*npt, 0.0);
  EXPECT_LT(*npt, 1000.0);  // >1 MHz
  CounterService steady(&l.log, CounterMode::kSteadyClock);
  ASSERT_TRUE(steady.ns_per_tick().has_value());
  EXPECT_DOUBLE_EQ(*steady.ns_per_tick(), 1.0);
}

TEST(Counter, NsPerTickFailsOnDegenerateWindow) {
  // A software counter whose word never advances calibrates to nothing.
  // The old code mapped that to 1.0 — indistinguishable from a real
  // 1 ns/tick calibration — which poisoned every downstream time
  // conversion; it must be an explicit failure.
  CounterLog l;
  CounterService never_started(&l.log, CounterMode::kSoftware);
  EXPECT_FALSE(never_started.ns_per_tick().has_value());
  CounterClassifier frozen;
  frozen.open(500, 1'000);
  frozen.observe(500, 2'000'000);
  EXPECT_FALSE(frozen.ns_per_tick(500, 4'000'000).has_value());
}

TEST(Counter, SoftwareCounterIncrementsHeaderWord) {
  CounterLog l;
  LogHeader& h = *l.log.header();
  // Yield aggressively so this passes on a single-core machine.
  CounterServiceOptions opts;
  opts.yield_every = 1024;
  CounterService counter(&l.log, CounterMode::kSoftware, opts);
  counter.start();
  EXPECT_TRUE(counter.running());
  u64 deadline = monotonic_ns() + 500'000'000;  // up to 500 ms
  u64 seen = 0;
  while (monotonic_ns() < deadline) {
    seen = h.counter.load(std::memory_order_relaxed);
    if (seen > 100'000) break;
    std::this_thread::yield();
  }
  counter.stop();
  EXPECT_FALSE(counter.running());
  EXPECT_GT(seen, 100'000u) << "software counter made no progress";
  ASSERT_TRUE(counter.ns_per_tick().has_value());
  EXPECT_GT(*counter.ns_per_tick(), 0.0);
  // The single counter owns no replica block.
  EXPECT_EQ(counter.health().replicas, 0u);

  // Stopped counter stays still.
  u64 frozen = h.counter.load(std::memory_order_relaxed);
  spin_for_ns(5'000'000);
  EXPECT_EQ(h.counter.load(std::memory_order_relaxed), frozen);
}

TEST(Counter, SoftwareModeReadsHeader) {
  LogHeader h;
  h.counter.store(777, std::memory_order_relaxed);
  EXPECT_EQ(read_counter(CounterMode::kSoftware, &h), 777u);
}

TEST(Counter, ModeNames) {
  EXPECT_STREQ(counter_mode_name(CounterMode::kSoftware), "software");
  EXPECT_STREQ(counter_mode_name(CounterMode::kTsc), "tsc");
  EXPECT_STREQ(counter_mode_name(CounterMode::kSteadyClock), "steady_clock");
}

// --- symbol registry ------------------------------------------------------------

TEST(SymbolRegistry, InternIsStable) {
  auto& reg = SymbolRegistry::instance();
  u64 a = reg.intern("test::function_a");
  u64 b = reg.intern("test::function_b");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("test::function_a"), a);
  EXPECT_TRUE(SymbolRegistry::is_registered_id(a));
  EXPECT_EQ(reg.name_of(a), "test::function_a");
}

TEST(SymbolRegistry, RawAddressesAreNotRegisteredIds) {
  // x86-64 canonical userspace addresses have bit 62 clear.
  EXPECT_FALSE(SymbolRegistry::is_registered_id(0x00007fffdeadbeefull));
  EXPECT_FALSE(SymbolRegistry::is_registered_id(0x1234));
}

TEST(SymbolRegistry, SerializeParseRoundTrip) {
  auto& reg = SymbolRegistry::instance();
  u64 id = reg.intern("roundtrip::sym");
  auto parsed = SymbolRegistry::parse(reg.serialize());
  ASSERT_TRUE(parsed.contains(id));
  EXPECT_EQ(parsed.at(id), "roundtrip::sym");
}

TEST(SymbolRegistry, ParseToleratesGarbage) {
  auto parsed = SymbolRegistry::parse("not_a_number\tname\n\n12\tgood\nbroken\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.at(12), "good");
}

TEST(SymbolRegistry, ConcurrentInternSafe) {
  auto& reg = SymbolRegistry::instance();
  std::vector<std::thread> threads;
  std::vector<u64> ids(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, &ids, t] {
      for (int i = 0; i < 200; ++i) {
        u64 id = reg.intern("concurrent::same_name");
        if (i == 0) ids[static_cast<usize>(t)] = id;
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(ids[static_cast<usize>(t)], ids[0]);
}

TEST(Demangle, CxxName) {
  EXPECT_EQ(demangle("_Z3foov"), "foo()");
  EXPECT_EQ(demangle("not_mangled"), "not_mangled");
}

}  // namespace
}  // namespace teeperf
