// Ablation A3 — tracing vs sampling (the abstract's claim).
//
// "TEE-Perf does not suffer from sampling frequency bias, which can occur
// with threads scheduled to align to the sampling frequency."
//
// Construction (the literal pathology): the workload aligns itself to the
// profiling timer. phase_a spins until the sampler fires; phase_b then runs
// entirely in the shadow *between* samples and is over long before the next
// tick. The sampler therefore almost never observes phase_b no matter how
// long the run — while TEE-Perf, tracing every call, measures it exactly.
// Ground truth comes from wall-clock measurement around each phase.
#include <atomic>
#include <cstdio>

#include "analyzer/stream.h"
#include "bench/bench_util.h"
#include "common/spin.h"
#include "core/profiler.h"
#include "perfsim/sampler.h"

using namespace teeperf;
using namespace teeperf::benchharness;

namespace {

constexpr u64 kSampleHz = 250;           // one kernel tick on HZ=250 systems
constexpr u64 kPhaseBNs = 1'200'000;     // ~30% of the 4 ms period
constexpr int kIterations = 250;

u64 g_phase_a_id, g_phase_b_id;

struct Truth {
  u64 a_ns = 0;
  u64 b_ns = 0;
  double b_share() const {
    return a_ns + b_ns ? static_cast<double>(b_ns) /
                             static_cast<double>(a_ns + b_ns)
                       : 0.0;
  }
};

// Runs the aligned workload. `tick` is a monotonically increasing count the
// sampler bumps (or a null source when tracing without a sampler — then
// phase_a just burns one period).
Truth aligned_workload(const perfsim::SamplingProfiler* sampler) {
  Truth truth;
  usize last = sampler ? sampler->sample_count() : 0;
  for (int i = 0; i < kIterations; ++i) {
    u64 t0 = monotonic_ns();
    {
      Scope a(g_phase_a_id);
      if (sampler) {
        // Occupy the CPU until the next sample lands — phase_a soaks up
        // every observation.
        while (sampler->sample_count() == last) spin_for_ns(20'000);
        last = sampler->sample_count();
      } else {
        spin_for_ns(1'000'000'000 / kSampleHz - kPhaseBNs);
      }
    }
    u64 t1 = monotonic_ns();
    {
      Scope b(g_phase_b_id);
      spin_for_ns(kPhaseBNs);
    }
    u64 t2 = monotonic_ns();
    truth.a_ns += t1 - t0;
    truth.b_ns += t2 - t1;
  }
  return truth;
}

}  // namespace

int main() {
  g_phase_a_id = SymbolRegistry::instance().intern("bias::phase_a");
  g_phase_b_id = SymbolRegistry::instance().intern("bias::phase_b");

  std::printf("Ablation A3: sampling frequency bias — workload aligned to the "
              "%llu Hz profiling timer\n",
              static_cast<unsigned long long>(kSampleHz));
  print_rule('=');

  // --- sampled (perf baseline): the pathological case -----------------------
  perfsim::SamplerOptions sopts;
  sopts.frequency_hz = kSampleHz;
  perfsim::SamplingProfiler sampler(sopts);
  if (!runtime::attach(nullptr, CounterMode::kTsc, nullptr)) return 1;
  sampler.start();
  Truth sampled_truth = aligned_workload(&sampler);
  sampler.stop();
  runtime::detach();

  usize a_samples = 0, b_samples = 0;
  for (auto& [id, n] : sampler.inclusive_counts()) {
    if (id == g_phase_a_id) a_samples = n;
    if (id == g_phase_b_id) b_samples = n;
  }
  double sampled_b = a_samples + b_samples
                         ? static_cast<double>(b_samples) /
                               static_cast<double>(a_samples + b_samples)
                         : 0.0;

  // --- traced (TEE-Perf) on the same aligned workload ------------------------
  // The sampler keeps running so the workload still aligns to it; TEE-Perf
  // records concurrently, as a developer would profile the same run.
  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;
  perfsim::SamplingProfiler pacer(sopts);
  pacer.start();
  Truth traced_truth = aligned_workload(&pacer);
  pacer.stop();
  recorder->detach();

  auto agg = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(recorder->log()));
  auto excl = [&](const char* name) {
    auto it = agg.methods.find(name);
    return it == agg.methods.end() ? u64{0} : it->second.exclusive_total;
  };
  u64 a_ticks = excl("bias::phase_a"), b_ticks = excl("bias::phase_b");
  double traced_b =
      a_ticks + b_ticks
          ? static_cast<double>(b_ticks) / static_cast<double>(a_ticks + b_ticks)
          : 0.0;

  std::printf("%-30s %14s %14s\n", "configuration", "phase_b share", "error");
  print_rule();
  std::printf("%-30s %13.1f%%\n", "ground truth (sampled run)",
              sampled_truth.b_share() * 100);
  std::printf("%-30s %13.1f%% %+13.1f pp   (%zu samples)\n",
              "perf-sim (sampled)", sampled_b * 100,
              (sampled_b - sampled_truth.b_share()) * 100, a_samples + b_samples);
  std::printf("%-30s %13.1f%%\n", "ground truth (traced run)",
              traced_truth.b_share() * 100);
  std::printf("%-30s %13.1f%% %+13.1f pp\n", "TEE-Perf (traced)", traced_b * 100,
              (traced_b - traced_truth.b_share()) * 100);
  print_rule('=');
  std::printf("Expected shape: the sampler attributes phase_b a small fraction "
              "of its true share (it fires inside phase_a by construction); "
              "the trace is exact to within ~1 pp.\n");
  return 0;
}
