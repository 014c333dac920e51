// Ablation A7 — attribution accuracy (§IV claim: "accurate profile
// measurements", "compared with Linux perf").
//
// A workload with *known* ground truth: four functions spin for fixed,
// very different durations (50/25/15/10% of each iteration), in a
// non-adversarial pattern (no alignment games — see abl_sampling_bias for
// those). Both profilers should be accurate here; the comparison reports
// each one's per-function attribution error, plus what happens to the
// sampler when functions become too short for its period to resolve.
#include <cmath>
#include <cstdio>

#include "analyzer/stream.h"
#include "bench/bench_util.h"
#include "common/spin.h"
#include "core/profiler.h"
#include "perfsim/sampler.h"

using namespace teeperf;
using namespace teeperf::benchharness;

namespace {

struct Phase {
  const char* name;
  double share;  // of one iteration
  u64 id = 0;
};

Phase g_phases[4] = {
    {"work::parse", 0.50},
    {"work::transform", 0.25},
    {"work::encode", 0.15},
    {"work::flush", 0.10},
};

void workload(u64 iteration_ns, int iterations) {
  for (int i = 0; i < iterations; ++i) {
    for (const Phase& p : g_phases) {
      Scope s(p.id);
      spin_for_ns(static_cast<u64>(static_cast<double>(iteration_ns) * p.share));
    }
  }
}

double max_error_traced(u64 iteration_ns, int iterations) {
  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1.0;
  workload(iteration_ns, iterations);
  recorder->detach();

  auto agg = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(recorder->log()));
  u64 total = 0;
  u64 per_phase[4] = {};
  for (int p = 0; p < 4; ++p) {
    auto it = agg.methods.find(g_phases[p].name);
    per_phase[p] = it == agg.methods.end() ? 0 : it->second.exclusive_total;
    total += per_phase[p];
  }
  double worst = 0;
  for (int p = 0; p < 4; ++p) {
    double share = total ? static_cast<double>(per_phase[p]) /
                               static_cast<double>(total)
                         : 0;
    worst = std::max(worst, std::abs(share - g_phases[p].share));
  }
  return worst;
}

double max_error_sampled(u64 iteration_ns, int iterations, usize* samples_out) {
  perfsim::SamplerOptions sopts;
  sopts.frequency_hz = 997;
  perfsim::SamplingProfiler sampler(sopts);
  if (!runtime::attach(nullptr, CounterMode::kTsc, nullptr)) return 1.0;
  sampler.start();
  workload(iteration_ns, iterations);
  sampler.stop();
  runtime::detach();

  usize per_phase[4] = {};
  usize total = 0;
  for (auto& [id, n] : sampler.leaf_counts()) {
    for (int p = 0; p < 4; ++p) {
      if (id == g_phases[p].id) {
        per_phase[p] += n;
        total += n;
      }
    }
  }
  *samples_out = total;
  double worst = 0;
  for (int p = 0; p < 4; ++p) {
    double share = total ? static_cast<double>(per_phase[p]) /
                               static_cast<double>(total)
                         : 0;
    worst = std::max(worst, std::abs(share - g_phases[p].share));
  }
  return worst;
}

}  // namespace

int main() {
  for (int p = 0; p < 4; ++p) {
    g_phases[p].id = SymbolRegistry::instance().intern(g_phases[p].name);
  }

  std::printf("Ablation A7: attribution accuracy vs ground truth "
              "(50/25/15/10%% split, ~1.2 s per configuration)\n");
  print_rule('=');
  std::printf("%-26s %18s %18s %10s\n", "function duration", "traced max err",
              "sampled max err", "samples");
  print_rule();

  struct Row {
    const char* label;
    u64 iteration_ns;
    int iterations;
  };
  // Same total runtime, shrinking function granularity.
  const Row rows[] = {
      {"coarse (10 ms/iter)", 10'000'000, 120},
      {"medium (1 ms/iter)", 1'000'000, 1200},
      {"fine (100 us/iter)", 100'000, 12000},
  };
  for (const Row& row : rows) {
    double traced = max_error_traced(row.iteration_ns, row.iterations);
    usize samples = 0;
    double sampled = max_error_sampled(row.iteration_ns, row.iterations, &samples);
    std::printf("%-26s %16.1f pp %16.1f pp %10zu\n", row.label, traced * 100,
                sampled * 100, samples);
  }
  print_rule('=');
  std::printf("Expected shape: tracing stays within ~1 pp at every "
              "granularity; sampling is fine when functions span many sample "
              "periods and degrades as they shrink below the sampling period.\n");
  return 0;
}
