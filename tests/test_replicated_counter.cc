// Replicated trusted time (core/replicated_counter.h, DESIGN.md §13) and
// the counter lifecycle fixes that shipped with it:
//   - SoftwareCounter start()/stop() is race-free and idempotent (the
//     CounterLifecycle suite runs under the TSan CI job),
//   - the replica shm block (layout, init/adopt, dump hygiene),
//   - replica threads advancing their private words with the elected
//     primary mirroring into the probe-visible header word,
//   - stall/backjump detection, fail-over and continuous calibration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/shm.h"
#include "common/spin.h"
#include "core/counter.h"
#include "core/log_format.h"
#include "core/replicated_counter.h"
#include "faultsim/fault.h"
#include "written_dump.h"

namespace teeperf {
namespace {

// --- SoftwareCounter lifecycle ----------------------------------------------

// Regression for the start()/stop() race: running_ used to be published
// only after the thread spawn, so a stop() racing start() saw "not running",
// skipped the join, and the std::thread destructor called std::terminate.
// Hammering both from many threads must never crash or leak a thread.
TEST(CounterLifecycle, StartStopHammerIsRaceFree) {
  LogHeader header;
  SoftwareCounter counter(&header, /*yield_every=*/1024);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 50; ++i) {
        if ((i + t) % 2) {
          counter.start();
        } else {
          counter.stop();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  counter.stop();
  EXPECT_FALSE(counter.running());
}

TEST(CounterLifecycle, StartIsIdempotent) {
  LogHeader header;
  SoftwareCounter counter(&header, /*yield_every=*/1024);
  counter.start();
  counter.start();  // second start must not spawn a second thread
  EXPECT_TRUE(counter.running());
  u64 deadline = monotonic_ns() + 2'000'000'000ull;
  while (header.counter.load(std::memory_order_relaxed) < 10'000 &&
         monotonic_ns() < deadline) {
    usleep(1000);
  }
  EXPECT_GE(header.counter.load(std::memory_order_relaxed), 10'000u);
  counter.stop();
  counter.stop();  // and stop is too
  EXPECT_FALSE(counter.running());
}

TEST(CounterLifecycle, StopWithoutStartIsANoop) {
  LogHeader header;
  SoftwareCounter counter(&header);
  counter.stop();
  EXPECT_FALSE(counter.running());
}

TEST(CounterLifecycle, RestartAfterStopResumesCounting) {
  LogHeader header;
  SoftwareCounter counter(&header, /*yield_every=*/1024);
  counter.start();
  u64 deadline = monotonic_ns() + 2'000'000'000ull;
  while (header.counter.load(std::memory_order_relaxed) == 0 &&
         monotonic_ns() < deadline) {
    usleep(1000);
  }
  counter.stop();
  u64 at_stop = header.counter.load(std::memory_order_relaxed);
  ASSERT_GT(at_stop, 0u);
  counter.start();
  deadline = monotonic_ns() + 2'000'000'000ull;
  while (header.counter.load(std::memory_order_relaxed) <= at_stop &&
         monotonic_ns() < deadline) {
    usleep(1000);
  }
  counter.stop();
  EXPECT_GT(header.counter.load(std::memory_order_relaxed), at_stop);
}

// --- replica shm block layout -----------------------------------------------

TEST(ReplicatedCounterLayout, BytesForReplicatedAddsAlignedBlock) {
  usize base = ProfileLog::bytes_for(1024, 1);
  usize with = ProfileLog::bytes_for_replicated(1024, 1, 3);
  EXPECT_EQ(ProfileLog::bytes_for_replicated(1024, 1, 0), base);
  // Directory + three 64-byte slots, plus at most one alignment pad.
  EXPECT_GE(with, base + sizeof(CounterReplicaDirectory) +
                      3 * sizeof(CounterReplicaSlot));
  EXPECT_LE(with, base + sizeof(CounterReplicaDirectory) +
                      3 * sizeof(CounterReplicaSlot) + 63);
}

TEST(ReplicatedCounterLayout, InitAndAdoptRoundTripReplicaBlock) {
  SharedMemoryRegion shm;
  ASSERT_TRUE(
      shm.create_anonymous(ProfileLog::bytes_for_replicated(4096, 1, 3)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 42,
                       log_flags::kActive | log_flags::kMultithread, 1, 3));
  ASSERT_EQ(log.counter_replica_count(), 3u);
  ASSERT_NE(log.replica_directory(), nullptr);
  EXPECT_EQ(log.replica_directory()->replica_count, 3u);
  for (u32 r = 0; r < 3; ++r) {
    EXPECT_EQ(log.replica_slot(r)->value.load(std::memory_order_relaxed), 0u);
  }
  // Slots must be cache-line isolated: 64-byte aligned, 64 bytes apart.
  auto addr0 = reinterpret_cast<uintptr_t>(log.replica_slot(0));
  EXPECT_EQ(addr0 % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(log.replica_slot(1)) - addr0, 64u);

  ProfileLog adopted;
  ASSERT_TRUE(adopted.adopt(shm.data(), shm.size()));
  EXPECT_EQ(adopted.counter_replica_count(), 3u);
  EXPECT_EQ(adopted.replica_slot(0), log.replica_slot(0));
}

TEST(ReplicatedCounterLayout, AdoptWithoutBlockDegradesToZeroReplicas) {
  // A dump carries the header but never the replica block; a reader of the
  // bare serialized bytes must degrade, not reject or read out of bounds.
  SharedMemoryRegion shm;
  ASSERT_TRUE(
      shm.create_anonymous(ProfileLog::bytes_for_replicated(1024, 1, 2)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 42,
                       log_flags::kActive | log_flags::kMultithread, 1, 2));
  for (int i = 0; i < 4; ++i) {
    log.append(i % 2 ? EventKind::kReturn : EventKind::kCall, 0xA000, 0,
               100 + static_cast<u64>(i));
  }
  usize truncated = ProfileLog::bytes_for(4, 1);
  std::vector<u8> file(static_cast<u8*>(shm.data()),
                       static_cast<u8*>(shm.data()) + truncated);
  // Dump-shaped: the written header and directory cover exactly the entries
  // present (as ProfileLog::write_compact() arranges) but the header still
  // claims two replicas — e.g. a stale tool that copied the live header
  // verbatim. No block follows.
  auto* fh = reinterpret_cast<LogHeader*>(file.data());
  fh->max_entries = 4;
  reinterpret_cast<LogShard*>(file.data() + sizeof(LogHeader))->capacity = 4;
  ProfileLog loaded;
  ASSERT_TRUE(loaded.adopt(file.data(), file.size()));
  EXPECT_EQ(loaded.counter_replica_count(), 0u);
  EXPECT_EQ(loaded.replica_directory(), nullptr);
}

TEST(ReplicatedCounterLayout, SerializeCompactClearsReplicaField) {
  SharedMemoryRegion shm;
  ASSERT_TRUE(
      shm.create_anonymous(ProfileLog::bytes_for_replicated(4096, 2, 3)));
  ProfileLog log;
  ASSERT_TRUE(log.init(shm.data(), shm.size(), 42,
                       log_flags::kActive | log_flags::kMultithread |
                           log_flags::kRecordCalls,
                       2, 3));
  log.append(EventKind::kCall, 0xA000, 0, 100);
  std::string out = written_dump(log);
  ASSERT_GE(out.size(), sizeof(LogHeader));
  LogHeader h;
  std::memcpy(&h, out.data(), sizeof(h));
  // The serialized form never carries the block, so the field must read 0 —
  // byte-deterministic dumps, and loaders never look for a phantom block.
  EXPECT_EQ(h.counter_replicas, 0u);
  EXPECT_EQ(log.counter_replica_count(), 3u);  // the live log keeps its block
}

// --- replica threads + detector ---------------------------------------------

class ReplicatedCounterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        shm_.create_anonymous(ProfileLog::bytes_for_replicated(4096, 1, 3)));
    ASSERT_TRUE(log_.init(shm_.data(), shm_.size(), 42,
                          log_flags::kActive | log_flags::kMultithread, 1, 3));
  }
  void TearDown() override { fault::Registry::instance().reset(); }

  ReplicatedCounterOptions fast_options() {
    ReplicatedCounterOptions o;
    o.yield_every = 1024;       // single-core CI: keep the workload alive
    o.detect_interval_us = 1000;
    o.pin_cores = false;        // don't fight the CI cpuset
    return o;
  }

  SharedMemoryRegion shm_;
  ProfileLog log_;
};

TEST_F(ReplicatedCounterTest, AllSlotsAdvanceAndPrimaryMirrorsHeader) {
  ReplicatedCounter rc(log_.header(), log_.replica_directory(),
                       log_.replica_slot(0), fast_options());
  rc.start();
  EXPECT_TRUE(rc.running());
  u64 deadline = monotonic_ns() + 5'000'000'000ull;
  bool all = false;
  while (!all && monotonic_ns() < deadline) {
    all = log_.header()->counter.load(std::memory_order_relaxed) > 10'000;
    for (u32 r = 0; r < 3; ++r) {
      all = all &&
            log_.replica_slot(r)->value.load(std::memory_order_relaxed) > 10'000;
    }
    usleep(1000);
  }
  // The mirrored header word tracks the primary's slot (same batch or one
  // 1024-tick batch behind, never ahead by more than a batch).
  u32 primary = log_.replica_directory()->primary.load(std::memory_order_relaxed);
  u64 h = log_.header()->counter.load(std::memory_order_relaxed);
  u64 p = log_.replica_slot(primary)->value.load(std::memory_order_relaxed);
  rc.stop();
  EXPECT_TRUE(all);
  EXPECT_GT(h, 0u);
  EXPECT_GT(p, 0u);
}

TEST_F(ReplicatedCounterTest, StartStopIsIdempotentAndRaceFree) {
  ReplicatedCounter rc(log_.header(), log_.replica_directory(),
                       log_.replica_slot(0), fast_options());
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rc, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 10; ++i) {
        if ((i + t) % 2) {
          rc.start();
        } else {
          rc.stop();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  rc.stop();
  EXPECT_FALSE(rc.running());
}

TEST_F(ReplicatedCounterTest, CalibrationConvergesToPositiveNsPerTick) {
  ReplicatedCounter rc(log_.header(), log_.replica_directory(),
                       log_.replica_slot(0), fast_options());
  EXPECT_FALSE(rc.calibrated_ns_per_tick().has_value());  // no windows yet
  rc.start();
  u64 deadline = monotonic_ns() + 5'000'000'000ull;
  std::optional<double> npt;
  while (!npt && monotonic_ns() < deadline) {
    usleep(5000);
    npt = rc.calibrated_ns_per_tick();
  }
  rc.stop();
  ASSERT_TRUE(npt.has_value());
  EXPECT_GT(*npt, 0.0);
  EXPECT_LT(*npt, 1e7);  // sanity: well under 10 ms per tick
}

TEST_F(ReplicatedCounterTest, PrimaryStallFailsOverAndStaysMonotonic) {
  fault::Registry::instance().arm_from_spec("counter.stall.primary:nth=1");
  ReplicatedCounter rc(log_.header(), log_.replica_directory(),
                       log_.replica_slot(0), fast_options());
  u32 from = ~0u, to = ~0u;
  rc.set_failover_callback([&](u32 f, u32 t, u64) { from = f; to = t; });
  rc.start();
  u64 deadline = monotonic_ns() + 10'000'000'000ull;
  u64 prev = 0;
  bool monotonic = true;
  while (rc.health().failovers == 0 && monotonic_ns() < deadline) {
    u64 now = log_.header()->counter.load(std::memory_order_relaxed);
    if (now < prev) monotonic = false;
    prev = now;
    usleep(500);
  }
  ASSERT_GE(rc.health().failovers, 1u);
  // Recovery: the new primary keeps the mirrored word advancing.
  u64 after_election = log_.header()->counter.load(std::memory_order_relaxed);
  deadline = monotonic_ns() + 5'000'000'000ull;
  while (log_.header()->counter.load(std::memory_order_relaxed) <=
             after_election + 10'000 &&
         monotonic_ns() < deadline) {
    u64 now = log_.header()->counter.load(std::memory_order_relaxed);
    if (now < prev) monotonic = false;
    prev = now;
    usleep(500);
  }
  rc.stop();
  EXPECT_GT(log_.header()->counter.load(std::memory_order_relaxed),
            after_election);
  EXPECT_TRUE(monotonic);
  // A second election may land during recovery, so every election figure
  // comes from one snapshot taken once the detector has stopped.
  ReplicatedCounter::Health h = rc.health();
  EXPECT_GE(h.failovers, 1u);
  EXPECT_EQ(log_.replica_directory()->failovers.load(std::memory_order_relaxed),
            h.failovers);
  EXPECT_NE(from, to);
  EXPECT_EQ(h.primary, to);
}

TEST_F(ReplicatedCounterTest, PrimaryBackjumpJournalsAndFailsOver) {
  // Sticky: a single 4–8k jump would be swamped by the millions of forward
  // ticks a replica makes per detector window; repeating it every batch
  // drives the primary's slot net-backwards so the detector must see it.
  fault::Registry::instance().arm_from_spec(
      "counter.backjump.primary:nth=1,sticky");
  ReplicatedCounter rc(log_.header(), log_.replica_directory(),
                       log_.replica_slot(0), fast_options());
  std::atomic<u64> backjumps_seen{0};
  rc.set_backjump_callback(
      [&](u32, u64, u64) { backjumps_seen.fetch_add(1); });
  rc.start();
  u64 deadline = monotonic_ns() + 10'000'000'000ull;
  while (rc.health().backjumps == 0 && monotonic_ns() < deadline) {
    usleep(500);
  }
  ReplicatedCounter::Health h = rc.health();
  rc.stop();
  ASSERT_GE(h.backjumps, 1u);
  EXPECT_GE(backjumps_seen.load(), 1u);
}

}  // namespace
}  // namespace teeperf
