// Tests for the sampling-profiler baseline: sample collection, stack
// capture via the runtime shadow stacks, flat-profile views, and the
// exclusive-use contract.
#include <gtest/gtest.h>

#include <signal.h>

#include <thread>

#include "common/spin.h"
#include "core/profiler.h"
#include "perfsim/sampler.h"

namespace teeperf::perfsim {
namespace {

class PerfsimTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (runtime::attached()) runtime::detach();
    runtime::reset_thread_for_test();
  }
};

TEST_F(PerfsimTest, CollectsSamplesWhileBurningCpu) {
  SamplerOptions opts;
  opts.frequency_hz = 2000;
  SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  spin_for_ns(300'000'000);  // 300 ms of CPU time
  sampler.stop();
  // ITIMER_PROF counts CPU time and is limited by the kernel tick rate
  // (~250 Hz on HZ=250 kernels); expect a healthy number, not the nominal
  // frequency.
  EXPECT_GT(sampler.sample_count(), 20u);
  EXPECT_EQ(sampler.dropped(), 0u);
}

TEST_F(PerfsimTest, OnlyOneSamplerAtATime) {
  SamplingProfiler a, b;
  ASSERT_TRUE(a.start());
  EXPECT_FALSE(b.start());
  a.stop();
  EXPECT_TRUE(b.start());
  b.stop();
}

TEST_F(PerfsimTest, StopIsIdempotent) {
  SamplingProfiler s;
  ASSERT_TRUE(s.start());
  s.stop();
  s.stop();
  EXPECT_FALSE(s.running());
}

TEST_F(PerfsimTest, CapturesShadowStackFrames) {
  // Attach the runtime in sampling-only mode (no trace log): scopes
  // maintain shadow stacks that the SIGPROF handler snapshots.
  ASSERT_TRUE(runtime::attach(nullptr, CounterMode::kSteadyClock, nullptr));
  u64 hot = SymbolRegistry::instance().intern("perfsim::hot");
  u64 outer = SymbolRegistry::instance().intern("perfsim::outer");

  SamplerOptions opts;
  opts.frequency_hz = 4000;
  SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  {
    Scope o(outer);
    Scope h(hot);
    spin_for_ns(250'000'000);
  }
  sampler.stop();
  runtime::detach();

  ASSERT_GT(sampler.sample_count(), 20u);
  auto leaves = sampler.leaf_counts();
  ASSERT_FALSE(leaves.empty());
  // Nearly every sample must land with `hot` on top of the stack.
  EXPECT_EQ(leaves[0].first, hot);
  auto inclusive = sampler.inclusive_counts();
  bool outer_seen = false;
  for (auto& [id, n] : inclusive) {
    if (id == outer) {
      outer_seen = true;
      EXPECT_GE(n, leaves[0].second);  // outer includes hot samples
    }
  }
  EXPECT_TRUE(outer_seen);
}

TEST_F(PerfsimTest, SamplesDecodeConsistently) {
  ASSERT_TRUE(runtime::attach(nullptr, CounterMode::kSteadyClock, nullptr));
  u64 a = SymbolRegistry::instance().intern("perfsim::frame_a");
  SamplingProfiler sampler;
  ASSERT_TRUE(sampler.start());
  {
    Scope s(a);
    spin_for_ns(150'000'000);
  }
  sampler.stop();
  runtime::detach();

  auto samples = sampler.samples();
  EXPECT_EQ(samples.size(), sampler.sample_count());
  for (const Sample& s : samples) {
    EXPECT_LE(s.depth, 64);
    if (s.depth > 0) EXPECT_NE(s.frames, nullptr);
  }
}

TEST_F(PerfsimTest, NoRuntimeMeansEmptyStacks) {
  // Sampling without an attached runtime still works (overhead baseline for
  // Figure 4): samples carry depth 0.
  SamplingProfiler sampler;
  ASSERT_TRUE(sampler.start());
  spin_for_ns(100'000'000);
  sampler.stop();
  for (const Sample& s : sampler.samples()) EXPECT_EQ(s.depth, 0);
  EXPECT_TRUE(sampler.leaf_counts().empty());
}

TEST_F(PerfsimTest, FreshThreadSignalConstructsNoThreadState) {
  // The handler must never be a thread's first touch of the runtime's
  // per-thread state: creating it registers a TLS destructor through
  // calloc, which deadlocks if the signal interrupted malloc. A thread the
  // hooks never ran on samples depth 0 and stays without state.
  SamplerOptions opts;
  opts.frequency_hz = 1;  // the test raises the signal itself
  SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  bool created = true;
  std::thread fresh([&] {
    raise(SIGPROF);
    created = runtime::thread_state_created_for_test();
  });
  fresh.join();
  sampler.stop();
  EXPECT_FALSE(created);
  std::vector<Sample> samples = sampler.samples();
  ASSERT_GE(samples.size(), 1u);
  bool from_fresh = false;
  for (const Sample& s : samples) {
    EXPECT_EQ(s.depth, 0);
    from_fresh = from_fresh || s.tid == ~0ull;
  }
  EXPECT_TRUE(from_fresh);
}

TEST_F(PerfsimTest, SignalReadsStackOfThreadTheHooksTouched) {
  ASSERT_TRUE(runtime::attach(nullptr, CounterMode::kSteadyClock, nullptr));
  SamplerOptions opts;
  opts.frequency_hz = 1;
  SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  std::thread worker([] {
    runtime::on_enter(0x51);
    runtime::on_enter(0x52);
    raise(SIGPROF);
    runtime::on_exit(0x52);
    runtime::on_exit(0x51);
  });
  worker.join();
  sampler.stop();
  runtime::detach();
  bool found = false;
  for (const Sample& s : sampler.samples()) {
    if (s.depth == 2 && s.frames[0] == 0x51 && s.frames[1] == 0x52) {
      found = true;
      EXPECT_NE(s.tid, ~0ull);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PerfsimTest, BufferOverflowCountsDrops) {
  SamplerOptions opts;
  opts.frequency_hz = 10'000;
  opts.max_samples = 8;  // tiny buffer
  SamplingProfiler sampler(opts);
  ASSERT_TRUE(sampler.start());
  spin_for_ns(400'000'000);
  sampler.stop();
  EXPECT_LE(sampler.sample_count(), 8u);
  EXPECT_GT(sampler.dropped(), 0u);
}

}  // namespace
}  // namespace teeperf::perfsim
