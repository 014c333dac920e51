// Self-telemetry subsystem: lock-free shm metrics registry, event journal,
// counter-health watchdog, exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <cstdio>

#include "analyzer/report.h"
#include "core/counter.h"
#include "common/fileutil.h"
#include "common/histogram.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/layout.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/watchdog.h"

using namespace teeperf;
using namespace teeperf::obs;

namespace {

std::unique_ptr<SelfTelemetry> anon_session(u32 journal_capacity = 256) {
  TelemetryOptions topts;  // no shm_name → anonymous region
  topts.journal_capacity = journal_capacity;
  auto t = SelfTelemetry::create(topts);
  EXPECT_NE(t, nullptr);
  return t;
}

}  // namespace

TEST(ObsMetrics, ConcurrentIncrementsSumExactly) {
  auto t = anon_session();
  constexpr int kThreads = 8;
  constexpr u64 kPerThread = 20000;

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      // Every thread registers by name itself — find-or-create must resolve
      // races to the same slot.
      Counter c = t->registry().counter("test.hits");
      ASSERT_TRUE(c.valid());
      for (u64 n = 0; n < kPerThread; ++n) c.inc();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(t->registry().counter("test.hits").value(), kThreads * kPerThread);
  EXPECT_EQ(t->registry().scalar_count(), 1u);
}

TEST(ObsMetrics, ConcurrentRegistrationDistinctNames) {
  auto t = anon_session();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Counter c = t->registry().counter("test.per_thread." + std::to_string(i));
      c.add(static_cast<u64>(i) + 1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t->registry().scalar_count(), static_cast<usize>(kThreads));
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(
        t->registry().counter("test.per_thread." + std::to_string(i)).value(),
        static_cast<u64>(i) + 1);
  }
}

TEST(ObsMetrics, TypeMismatchYieldsInertHandle) {
  auto t = anon_session();
  Counter c = t->registry().counter("test.mixed");
  ASSERT_TRUE(c.valid());
  Gauge g = t->registry().gauge("test.mixed");
  EXPECT_FALSE(g.valid());
  g.set(42);  // no-op, must not crash or corrupt the counter
  c.inc();
  EXPECT_EQ(t->registry().counter("test.mixed").value(), 1u);
}

TEST(ObsMetrics, RegistryFullYieldsInertHandles) {
  TelemetryOptions topts;
  topts.scalar_capacity = 4;
  auto t = SelfTelemetry::create(topts);
  ASSERT_NE(t, nullptr);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(t->registry().counter("c" + std::to_string(i)).valid());
  }
  Counter overflow = t->registry().counter("c4");
  EXPECT_FALSE(overflow.valid());
  overflow.inc();  // silently dropped
  EXPECT_EQ(t->registry().scalar_count(), 4u);
}

TEST(ObsHistogram, BucketBoundaries) {
  // Power-of-two bucketing: values [2^(b-1), 2^b - 1] land in bucket b.
  EXPECT_EQ(hist::bucket_for(0), 0u);
  EXPECT_EQ(hist::bucket_for(1), hist::bucket_for(1));
  for (usize b = 2; b < 63; ++b) {
    u64 lo = hist::bucket_low(b);
    u64 hi = hist::bucket_high(b);
    ASSERT_LT(lo, hi);
    EXPECT_EQ(hist::bucket_for(lo), b) << "low edge of bucket " << b;
    EXPECT_EQ(hist::bucket_for(hi), b) << "high edge of bucket " << b;
    EXPECT_NE(hist::bucket_for(hi + 1), b) << "past bucket " << b;
    // Adjacent buckets tile the value range with no gaps.
    EXPECT_EQ(hist::bucket_high(b - 1) + 1, lo);
  }
  EXPECT_LT(hist::bucket_for(~0ull), hist::kLogBuckets);
}

TEST(ObsHistogram, ShmHistogramStats) {
  auto t = anon_session();
  Histogram h = t->registry().histogram("test.latency");
  ASSERT_TRUE(h.valid());
  for (u64 v : {100ull, 200ull, 400ull, 800ull, 1600ull}) h.add(v);
  EXPECT_EQ(h.count(), 5u);
  const HistogramSlot* slot = h.slot();
  EXPECT_EQ(slot->min.load(), 100u);
  EXPECT_EQ(slot->max.load(), 1600u);
  EXPECT_EQ(slot->sum.load(), 3100u);
  EXPECT_EQ(t->registry().histogram_count(), 1u);
}

TEST(ObsJournal, RecordAndSnapshot) {
  auto t = anon_session();
  t->journal().record(EventType::kAttach, 1234, 0, "software");
  t->journal().record(EventType::kActivate);
  t->journal().record(EventType::kDetach, 42, 7);
  EXPECT_EQ(t->journal().total(), 3u);
  auto events = t->journal().snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kAttach);
  EXPECT_EQ(events[0].arg0, 1234u);
  EXPECT_STREQ(events[0].detail, "software");
  EXPECT_EQ(events[2].type, EventType::kDetach);
  EXPECT_EQ(events[2].arg1, 7u);
  // Timestamps are monotone in sequence order.
  EXPECT_LE(events[0].t_ns, events[2].t_ns);
}

TEST(ObsJournal, EmptyDetailRecordsEmptyString) {
  // A default string_view has a null data(); journaling it copies nothing
  // (the sanitizer build checks there is no memcpy from null) and still
  // clears the detail a recycled slot held before.
  auto t = anon_session(/*journal_capacity=*/2);
  t->journal().record(EventType::kAttach, 1, 0, "software");
  t->journal().record(EventType::kActivate, 2, 0, std::string_view{});
  t->journal().record(EventType::kDeactivate, 3, 0, std::string_view{});
  auto events = t->journal().snapshot();
  ASSERT_EQ(events.size(), 2u);
  for (const Event& e : events) {
    EXPECT_NE(e.type, EventType::kAttach);
    EXPECT_STREQ(e.detail, "");
  }
}

TEST(ObsJournal, WrapKeepsNewestWindow) {
  auto t = anon_session(/*journal_capacity=*/8);
  for (u64 i = 1; i <= 20; ++i) {
    t->journal().record(EventType::kRingWrap, i);
  }
  EXPECT_EQ(t->journal().total(), 20u);
  auto events = t->journal().snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().seq, 13u);
  EXPECT_EQ(events.back().seq, 20u);
  EXPECT_EQ(events.back().arg0, 20u);
}

TEST(ObsSession, NamedRegionSharedAcrossMappings) {
  // The cross-process story in one process: a second SelfTelemetry::open of
  // the same named region sees writes through the first mapping.
  TelemetryOptions topts;
  topts.shm_name = "/teeperf_test_obs." + std::to_string(getpid());
  auto owner = SelfTelemetry::create(topts);
  ASSERT_NE(owner, nullptr);
  owner->registry().counter("test.shared").add(99);
  owner->journal().record(EventType::kAttach, 1);

  auto scraper = SelfTelemetry::open(topts.shm_name);
  ASSERT_NE(scraper, nullptr);
  EXPECT_EQ(scraper->registry().counter("test.shared").value(), 99u);
  EXPECT_EQ(scraper->journal().total(), 1u);

  // Writes through the scraper mapping are visible to the owner too (the
  // profiled child uses exactly this path for its per-thread counters).
  scraper->registry().counter("test.shared").inc();
  EXPECT_EQ(owner->registry().counter("test.shared").value(), 100u);
}

TEST(ObsSession, InstallUninstallBumpsEpoch) {
  u64 before = telemetry_epoch();
  auto t = anon_session();
  install(t.get());
  EXPECT_EQ(telemetry(), t.get());
  EXPECT_GT(telemetry_epoch(), before);
  u64 installed = telemetry_epoch();
  journal_event(EventType::kActivate);
  EXPECT_EQ(t->journal().total(), 1u);
  uninstall(t.get());
  EXPECT_EQ(telemetry(), nullptr);
  EXPECT_GT(telemetry_epoch(), installed);
  journal_event(EventType::kActivate);  // no sink installed → dropped
  EXPECT_EQ(t->journal().total(), 1u);
}

// The watchdog publishes the counter service's verdicts and derives
// nothing: a scripted classifier feed, published tick by tick without a
// thread, must land in the gauges, counters and journal.
struct ScriptedCounter {
  CounterClassifier classifier;
  u64 value = 0;
  u64 ns = 0;
  ScriptedCounter() { classifier.open(value, ns); }
  CounterSample window(u64 ticks, u64 ms = 50) {
    value += ticks;
    ns += ms * 1'000'000;
    return classifier.observe(value, ns);
  }
};

std::vector<Event> journaled(const SelfTelemetry& t, EventType type) {
  std::vector<Event> out;
  for (const Event& e : t.journal().snapshot()) {
    if (e.type == type) out.push_back(e);
  }
  return out;
}

TEST(ObsWatchdog, FrozenCounterJournalsStall) {
  auto t = anon_session();
  Watchdog wd(&t->registry(), &t->journal(), nullptr, "software", 50);
  ScriptedCounter c;
  for (int i = 0; i < 4; ++i) wd.publish(c.window(500));
  EXPECT_EQ(t->registry().gauge("counter.stalled").value(), 0u);

  wd.publish(c.window(0));
  EXPECT_EQ(t->registry().gauge("counter.stalled").value(), 0u);
  wd.publish(c.window(0));  // the second zero window is the stall
  wd.publish(c.window(0));
  EXPECT_EQ(t->registry().gauge("counter.stalled").value(), 1u);
  EXPECT_EQ(t->registry().counter("watchdog.stall_events").value(), 1u);
  std::vector<Event> stalls = journaled(*t, EventType::kCounterStall);
  ASSERT_EQ(stalls.size(), 1u);
  EXPECT_STREQ(stalls[0].detail, "software");
  EXPECT_EQ(stalls[0].arg0, 2'000u);        // the stuck value
  EXPECT_EQ(stalls[0].arg1, 100'000'000u);  // stalled for two windows

  wd.publish(c.window(500));
  EXPECT_EQ(t->registry().gauge("counter.stalled").value(), 0u);
  std::vector<Event> recovers = journaled(*t, EventType::kCounterRecover);
  ASSERT_EQ(recovers.size(), 1u);
  EXPECT_EQ(recovers[0].arg1, 200'000'000u);  // the whole stall
}

TEST(ObsWatchdog, HealthyCounterPublishesRate) {
  auto t = anon_session();
  Watchdog wd(&t->registry(), &t->journal(), nullptr, "software", 50);
  ScriptedCounter c;
  for (int i = 0; i < 3; ++i) wd.publish(c.window(500));  // 100 µs per tick
  // ns/tick published in picoseconds, each window into the histogram.
  EXPECT_EQ(t->registry().gauge("counter.ns_per_tick_pico").value(),
            100'000'000u);
  EXPECT_EQ(t->registry().histogram("counter.ns_per_tick_pico").count(), 3u);
  EXPECT_EQ(t->registry().gauge("counter.stalled").value(), 0u);
  EXPECT_EQ(t->journal().total(), 0u);
}

TEST(ObsWatchdog, DriftWindowJournalsOnceAndClears) {
  auto t = anon_session();
  Watchdog wd(&t->registry(), &t->journal(), nullptr, "software", 50);
  ScriptedCounter c;
  for (u32 i = 0; i <= CounterClassifier::kCalibrationWindows; ++i) {
    wd.publish(c.window(500));
  }
  // Two windows at a third of the rate: 300 µs per tick, +200%.
  wd.publish(c.window(500, 150));
  wd.publish(c.window(500, 150));
  EXPECT_EQ(t->registry().gauge("counter.drifting").value(), 1u);
  EXPECT_EQ(t->registry().counter("watchdog.drift_events").value(), 1u);
  std::vector<Event> drifts = journaled(*t, EventType::kCounterDrift);
  ASSERT_EQ(drifts.size(), 1u);
  EXPECT_EQ(drifts[0].arg0, 300'000'000u);  // the window, ps/tick
  // The running calibration, this window included: 400 ms over 3,000 ticks.
  EXPECT_EQ(drifts[0].arg1, 133'333'333u);
  wd.publish(c.window(500));
  EXPECT_EQ(t->registry().gauge("counter.drifting").value(), 0u);
  EXPECT_EQ(journaled(*t, EventType::kCounterDrift).size(), 1u);
}

TEST(ObsExport, TextAndJsonl) {
  auto t = anon_session();
  t->registry().counter("test.count").add(3);
  t->registry().gauge("test.level").set(7);
  t->registry().histogram("test.dist").add(1000);
  t->journal().record(EventType::kAttach, 55, 0, "tsc");

  std::string text = metrics_text(t->registry());
  EXPECT_NE(text.find("test.count"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("test.level"), std::string::npos);

  std::string jsonl = metrics_jsonl(t->registry());
  EXPECT_NE(jsonl.find("{\"metric\":\"test.count\",\"type\":\"counter\","
                       "\"value\":3}"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"metric\":\"test.dist\""), std::string::npos);

  std::string ejson = events_jsonl(t->journal());
  EXPECT_NE(ejson.find("\"event\":\"attach\""), std::string::npos);
  EXPECT_NE(ejson.find("\"arg0\":55"), std::string::npos);
  EXPECT_NE(ejson.find("\"detail\":\"tsc\""), std::string::npos);

  std::string health = health_text(t->registry(), t->journal());
  EXPECT_NE(health.find("recorder health metrics"), std::string::npos);
  EXPECT_NE(health.find("recorder events"), std::string::npos);
}

TEST(ObsExport, AnalyzerHealthReportWarnsOnStall) {
  // The analyzer folds the sidecar files into its report and distills
  // degradation warnings out of the event stream.
  auto t = anon_session();
  t->registry().gauge("counter.stalled").set(1);
  t->journal().record(EventType::kCounterStall, 123, 456, "software");
  std::string prefix = "/tmp/teeperf_test_obs_health." + std::to_string(getpid());
  ASSERT_TRUE(write_file(prefix + ".health",
                         health_text(t->registry(), t->journal())));
  ASSERT_TRUE(write_file(prefix + ".events.jsonl", events_jsonl(t->journal())));

  std::string report = analyzer::health_report(prefix);
  EXPECT_NE(report.find("recorder health"), std::string::npos);
  EXPECT_NE(report.find("WARNING: counter_stall"), std::string::npos);
  EXPECT_NE(report.find("counter.stalled"), std::string::npos);

  EXPECT_EQ(analyzer::health_report(prefix + ".nonexistent"), "");
  std::remove((prefix + ".health").c_str());
  std::remove((prefix + ".events.jsonl").c_str());
}

TEST(ObsLayoutTest, RejectsForeignBuffer) {
  std::vector<u8> buf(4096, 0xAB);
  ObsLayout layout;
  EXPECT_FALSE(ObsLayout::map(buf.data(), buf.size(), &layout));
}
