// The counter service (core/counter.h, DESIGN.md §7, §13):
//   - the classifier and calibrator, fed scripted (value, ns) windows — no
//     clock, no thread, no sleep,
//   - start()/stop() is race-free and idempotent (the CounterLifecycle
//     suite runs under the TSan CI job),
//   - the replica shm block (layout, init/adopt, dump hygiene),
//   - replica threads advancing their private words with the elected
//     primary mirroring into the probe-visible header word,
//   - stall/backjump detection, fail-over and calibration of the header
//     word.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/shm.h"
#include "common/spin.h"
#include "core/counter.h"
#include "core/log_format.h"
#include "faultsim/fault.h"
#include "obs/session.h"
#include "written_dump.h"

namespace teeperf {
namespace {

// --- classifier and calibrator --------------------------------------------

using obs::CounterSample;
using obs::CounterVerdict;

constexpr u64 kMs = 1'000'000;

// Feeds `windows` windows of `ms_each` at `ticks_each` ticks per window.
CounterSample feed(CounterClassifier& c, u64& value, u64& ns, int windows,
                   u64 ticks_each, u64 ms_each = 1) {
  CounterSample s;
  for (int i = 0; i < windows; ++i) {
    value += ticks_each;
    ns += ms_each * kMs;
    s = c.observe(value, ns);
  }
  return s;
}

TEST(CounterClassifier, AdvancingWordCalibratesRate) {
  CounterClassifier c;
  u64 value = 5'000, ns = 10 * kMs;
  c.open(value, ns);
  CounterSample s = feed(c, value, ns, 3, 1'000);  // 1 µs per tick
  EXPECT_EQ(s.verdict, CounterVerdict::kAdvanced);
  EXPECT_DOUBLE_EQ(s.window_ns_per_tick, 1'000.0);
  EXPECT_DOUBLE_EQ(s.ns_per_tick, 1'000.0);
  EXPECT_EQ(s.previous, value - 1'000);
  EXPECT_FALSE(s.stalled);
  // A rate change moves the running Σdt/Σdc, not just the last window.
  s = feed(c, value, ns, 1, 2'000);
  EXPECT_DOUBLE_EQ(s.window_ns_per_tick, 500.0);
  EXPECT_DOUBLE_EQ(s.ns_per_tick, 4.0 * kMs / 5'000.0);
}

TEST(CounterClassifier, StallAfterKZeroWindowsThenRecover) {
  CounterClassifier c;
  u64 value = 0, ns = 0;
  c.open(value, ns);
  feed(c, value, ns, 4, 1'000);
  CounterSample s = feed(c, value, ns, 1, 0);
  EXPECT_EQ(s.verdict, CounterVerdict::kZeroWindow);
  EXPECT_FALSE(s.stalled);
  s = feed(c, value, ns, 1, 0);  // the k-th zero window completes the stall
  ASSERT_EQ(CounterClassifier::kStallWindows, 2u);
  EXPECT_EQ(s.verdict, CounterVerdict::kStalled);
  EXPECT_TRUE(s.stalled);
  EXPECT_EQ(s.stall_ns, 2 * kMs);
  EXPECT_EQ(s.value, 4'000u);
  s = feed(c, value, ns, 1, 0);  // stalled, but not newly
  EXPECT_EQ(s.verdict, CounterVerdict::kZeroWindow);
  EXPECT_TRUE(s.stalled);
  EXPECT_EQ(s.stall_ns, 3 * kMs);
  s = feed(c, value, ns, 1, 1'000);
  EXPECT_EQ(s.verdict, CounterVerdict::kAdvanced);
  EXPECT_TRUE(s.recovered);
  EXPECT_FALSE(s.stalled);
  EXPECT_EQ(s.stall_ns, 4 * kMs);
  // The stalled time stays in the calibration: probes accrued no ticks in
  // it either. 8 ms over 5,000 ticks.
  EXPECT_DOUBLE_EQ(s.ns_per_tick, 8.0 * kMs / 5'000.0);
  s = feed(c, value, ns, 1, 1'000);
  EXPECT_FALSE(s.recovered);
}

TEST(CounterClassifier, BackjumpIsExcludedFromCalibration) {
  CounterClassifier c;
  u64 value = 1'000'000, ns = 0;
  c.open(value, ns);
  feed(c, value, ns, 2, 1'000);
  feed(c, value, ns, 2, 0);  // stalled
  value -= 50'000;
  ns += kMs;
  CounterSample s = c.observe(value, ns);
  EXPECT_EQ(s.verdict, CounterVerdict::kBackjump);
  EXPECT_LT(s.value, s.previous);
  EXPECT_TRUE(s.recovered);  // a moving word is not a stalled one
  EXPECT_FALSE(s.stalled);
  EXPECT_EQ(s.window_ns_per_tick, 0.0);
  // 4 ms over 2,000 ticks; the backjump window adds neither.
  EXPECT_DOUBLE_EQ(s.ns_per_tick, 2'000.0);
  // Forward progress from the lower value calibrates again.
  s = feed(c, value, ns, 2, 1'000);
  EXPECT_EQ(s.verdict, CounterVerdict::kAdvanced);
  EXPECT_DOUBLE_EQ(s.ns_per_tick, 6.0 * kMs / 4'000.0);
}

TEST(CounterClassifier, DriftWindowFlagsOnceAndClears) {
  CounterClassifier c;
  u64 value = 0, ns = 0;
  c.open(value, ns);
  // Drift arms after the calibration windows; a deviant window before that
  // is just calibration.
  CounterSample s = feed(c, value, ns, CounterClassifier::kCalibrationWindows,
                         1'000);
  EXPECT_FALSE(s.drifting);
  s = feed(c, value, ns, 1, 1'000);
  EXPECT_EQ(s.deviation, 0.0);
  s = feed(c, value, ns, 1, 400);  // 2.5 µs per tick: +150%
  EXPECT_TRUE(s.drift_began);
  EXPECT_TRUE(s.drifting);
  EXPECT_GT(s.deviation, CounterClassifier::kDriftThreshold);
  s = feed(c, value, ns, 1, 400);
  EXPECT_FALSE(s.drift_began);  // one episode, one event
  EXPECT_TRUE(s.drifting);
  s = feed(c, value, ns, 1, 1'000);
  EXPECT_FALSE(s.drifting);
  EXPECT_LE(s.deviation, CounterClassifier::kDriftThreshold);
  // Within the threshold is jitter, not drift.
  s = feed(c, value, ns, 1, 800);
  EXPECT_FALSE(s.drift_began);
}

TEST(CounterClassifier, CalibrationRunsFromOpenThroughTheOpenWindowToClose) {
  CounterClassifier c(7, 3 * kMs);  // not calibrating yet
  EXPECT_FALSE(c.ns_per_tick(1'007, 4 * kMs).has_value());
  c.open(1'007, 4 * kMs);
  // Dump time: the open window counts without closing it.
  EXPECT_DOUBLE_EQ(*c.ns_per_tick(2'007, 5 * kMs), 1'000.0);
  c.observe(2'007, 5 * kMs);
  c.close(4'007, 6 * kMs);
  EXPECT_DOUBLE_EQ(*c.ns_per_tick(9'999, 9 * kMs), 2.0 * kMs / 3'000.0);
  // After close(), windows are still classified but not calibrated.
  CounterSample s = c.observe(4'007, 7 * kMs);
  EXPECT_EQ(s.verdict, CounterVerdict::kZeroWindow);
  EXPECT_DOUBLE_EQ(s.ns_per_tick, 2.0 * kMs / 3'000.0);
}

// --- CounterService lifecycle -----------------------------------------------

// A one-shard log with no replica block: the single-counter session.
struct SingleLog {
  std::vector<u8> buf = std::vector<u8>(ProfileLog::bytes_for(1024, 1));
  ProfileLog log;
  SingleLog() { log.init(buf.data(), buf.size(), 42, log_flags::kActive); }
  u64 word() const {
    return log.header()->counter.load(std::memory_order_relaxed);
  }
};

CounterServiceOptions yielding() {
  CounterServiceOptions o;
  o.yield_every = 1024;  // single-core CI: keep the workload alive
  return o;
}

// Regression for the start()/stop() race: running_ used to be published
// only after the thread spawn, so a stop() racing start() saw "not running",
// skipped the join, and the std::thread destructor called std::terminate.
// Hammering both from many threads must never crash or leak a thread.
TEST(CounterLifecycle, StartStopHammerIsRaceFree) {
  SingleLog l;
  CounterService counter(&l.log, CounterMode::kSoftware, yielding());
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
  SingleLog l;
  CounterService counter(&l.log, CounterMode::kSoftware, yielding());
  counter.start();
  counter.start();  // second start must not spawn a second thread
  EXPECT_TRUE(counter.running());
  u64 deadline = monotonic_ns() + 2'000'000'000ull;
  while (l.word() < 10'000 && monotonic_ns() < deadline) usleep(1000);
  EXPECT_GE(l.word(), 10'000u);
  counter.stop();
  counter.stop();  // and stop is too
  EXPECT_FALSE(counter.running());
}

TEST(CounterLifecycle, StopWithoutStartIsANoop) {
  SingleLog l;
  CounterService counter(&l.log, CounterMode::kSoftware);
  counter.stop();
  EXPECT_FALSE(counter.running());
}

TEST(CounterLifecycle, RestartAfterStopResumesCounting) {
  SingleLog l;
  CounterService counter(&l.log, CounterMode::kSoftware, yielding());
  counter.start();
  u64 deadline = monotonic_ns() + 2'000'000'000ull;
  while (l.word() == 0 && monotonic_ns() < deadline) usleep(1000);
  counter.stop();
  u64 at_stop = l.word();
  ASSERT_GT(at_stop, 0u);
  counter.start();
  deadline = monotonic_ns() + 2'000'000'000ull;
  while (l.word() <= at_stop && monotonic_ns() < deadline) usleep(1000);
  counter.stop();
  EXPECT_GT(l.word(), at_stop);
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
    telemetry_ = obs::SelfTelemetry::create({});  // anonymous region
    ASSERT_NE(telemetry_, nullptr);
  }
  void TearDown() override { fault::Registry::instance().reset(); }

  std::unique_ptr<CounterService> make_service() {
    CounterServiceOptions o;
    o.yield_every = 1024;  // single-core CI: keep the workload alive
    return std::make_unique<CounterService>(&log_, CounterMode::kSoftware, o,
                                            &telemetry_->journal());
  }
  std::vector<obs::Event> events(obs::EventType type) const {
    std::vector<obs::Event> out;
    for (const obs::Event& ev : telemetry_->journal().snapshot()) {
      if (ev.type == type) out.push_back(ev);
    }
    return out;
  }
  u64 word() const {
    return log_.header()->counter.load(std::memory_order_relaxed);
  }

  SharedMemoryRegion shm_;
  ProfileLog log_;
  std::unique_ptr<obs::SelfTelemetry> telemetry_;
};

TEST_F(ReplicatedCounterTest, AllSlotsAdvanceAndPrimaryMirrorsHeader) {
  auto rc = make_service();
  rc->start();
  EXPECT_TRUE(rc->running());
  EXPECT_EQ(rc->health().replicas, 3u);
  u64 deadline = monotonic_ns() + 5'000'000'000ull;
  bool all = false;
  while (!all && monotonic_ns() < deadline) {
    all = word() > 10'000;
    for (u32 r = 0; r < 3; ++r) {
      all = all &&
            log_.replica_slot(r)->value.load(std::memory_order_relaxed) > 10'000;
    }
    usleep(1000);
  }
  u32 primary = log_.replica_directory()->primary.load(std::memory_order_relaxed);
  u64 h = word();
  u64 p = log_.replica_slot(primary)->value.load(std::memory_order_relaxed);
  rc->stop();
  EXPECT_TRUE(all);
  EXPECT_GT(h, 0u);
  EXPECT_GT(p, 0u);
}

TEST_F(ReplicatedCounterTest, StartStopIsIdempotentAndRaceFree) {
  auto rc = make_service();
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rc, &go, t] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < 10; ++i) {
        if ((i + t) % 2) {
          rc->start();
        } else {
          rc->stop();
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  rc->stop();
  EXPECT_FALSE(rc->running());
}

TEST_F(ReplicatedCounterTest, CalibrationConvergesToPositiveNsPerTick) {
  auto rc = make_service();
  EXPECT_FALSE(rc->ns_per_tick().has_value());  // no windows yet
  rc->start();
  u64 deadline = monotonic_ns() + 5'000'000'000ull;
  std::optional<double> npt;
  while (!npt && monotonic_ns() < deadline) {
    usleep(5000);
    npt = rc->ns_per_tick();
  }
  rc->stop();
  ASSERT_TRUE(npt.has_value());
  EXPECT_GT(*npt, 0.0);
  EXPECT_LT(*npt, 1e7);  // sanity: well under 10 ms per tick
  // The calibrated word is the published header word: its whole run.
  ASSERT_TRUE(rc->ns_per_tick().has_value());
  EXPECT_GT(*rc->ns_per_tick(), 0.0);
}

TEST_F(ReplicatedCounterTest, PrimaryStallFailsOverAndStaysMonotonic) {
  fault::Registry::instance().arm_from_spec("counter.stall.primary:nth=1");
  auto rc = make_service();
  rc->start();
  u64 deadline = monotonic_ns() + 10'000'000'000ull;
  u64 prev = 0;
  bool monotonic = true;
  while (rc->health().failovers == 0 && monotonic_ns() < deadline) {
    u64 now = word();
    if (now < prev) monotonic = false;
    prev = now;
    usleep(500);
  }
  ASSERT_GE(rc->health().failovers, 1u);
  // Recovery: the new primary keeps the mirrored word advancing.
  u64 after_election = word();
  deadline = monotonic_ns() + 5'000'000'000ull;
  while (word() <= after_election + 10'000 && monotonic_ns() < deadline) {
    u64 now = word();
    if (now < prev) monotonic = false;
    prev = now;
    usleep(500);
  }
  rc->stop();
  EXPECT_GT(word(), after_election);
  EXPECT_TRUE(monotonic);
  // A second election may land during recovery, so every election figure
  // comes from one snapshot taken once the detector has stopped.
  obs::CounterSample h = rc->health();
  EXPECT_GE(h.failovers, 1u);
  EXPECT_EQ(log_.replica_directory()->failovers.load(std::memory_order_relaxed),
            h.failovers);
  std::vector<obs::Event> elections = events(obs::EventType::kCounterFailover);
  ASSERT_EQ(elections.size(), h.failovers);
  EXPECT_NE(elections.back().arg0, elections.back().arg1);
  EXPECT_EQ(elections.back().arg1, h.primary);
}

TEST_F(ReplicatedCounterTest, PrimaryBackjumpJournalsAndFailsOver) {
  // Sticky: a single 4–8k jump would be swamped by the millions of forward
  // ticks a replica makes per detector window; repeating it every batch
  // drives the primary's slot net-backwards so the detector must see it.
  fault::Registry::instance().arm_from_spec(
      "counter.backjump.primary:nth=1,sticky");
  auto rc = make_service();
  rc->start();
  u64 deadline = monotonic_ns() + 10'000'000'000ull;
  while (rc->health().backjumps == 0 && monotonic_ns() < deadline) {
    usleep(500);
  }
  obs::CounterSample h = rc->health();
  rc->stop();
  ASSERT_GE(h.backjumps, 1u);
  std::vector<obs::Event> jumps = events(obs::EventType::kCounterBackjump);
  ASSERT_GE(jumps.size(), 1u);
  EXPECT_LT(jumps.front().arg0, jumps.front().arg1);  // new < previous
  EXPECT_STREQ(jumps.front().detail, "replica");
}

}  // namespace
}  // namespace teeperf
