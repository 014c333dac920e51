// Figure 4: profiling overhead of TEE-Perf relative to perf, Phoenix suite
// running in the (simulated) SGX TEE.
//
// For each kernel, two configurations run inside the enclave simulator:
//   perf      — the sampling baseline armed at 997 Hz (per-sample signal
//               delivery is its real cost), no trace instrumentation live;
//   TEE-Perf  — the recorder attached with calls+returns traced.
// The reported number is runtime(TEE-Perf) / runtime(perf), min-of-N per
// configuration (N = TEEPERF_REPEATS, default 10; paper: geomean of 10 via
// Fex), with the runs interleaved across kernels and configurations.
// Paper's anchors: linear_regression ≈ 0.92× (TEE-Perf *faster*, because
// it injects nothing into a call-free kernel while perf keeps
// interrupting), string_match ≈ 5.7× (a function call per word), geometric
// mean ≈ 1.9×.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/spin.h"
#include "common/stringutil.h"
#include "core/profiler.h"
#include "perfsim/sampler.h"
#include "phoenix/phoenix.h"
#include "tee/enclave.h"

using namespace teeperf;
using namespace teeperf::benchharness;

namespace {

constexpr usize kThreads = 4;

double run_once_perf(phoenix::PhoenixBenchmark& bench, tee::Enclave& enclave) {
  perfsim::SamplerOptions opts;
  opts.frequency_hz = 997;
  perfsim::SamplingProfiler sampler(opts);
  sampler.start();
  u64 t0 = monotonic_ns();
  enclave.ecall([&] { bench.run(kThreads); });
  u64 t1 = monotonic_ns();
  sampler.stop();
  return static_cast<double>(t1 - t0) / 1e6;
}

double run_once_teeperf(phoenix::PhoenixBenchmark& bench, tee::Enclave& enclave) {
  RecorderOptions opts;
  opts.max_entries = 1ull << 23;  // 8M entries (256 MiB host memory)
  opts.counter_mode = CounterMode::kTsc;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) {
    std::fprintf(stderr, "recorder setup failed\n");
    std::exit(1);
  }
  u64 t0 = monotonic_ns();
  enclave.ecall([&] { bench.run(kThreads); });
  u64 t1 = monotonic_ns();
  recorder->detach();
  return static_cast<double>(t1 - t0) / 1e6;
}

}  // namespace

int main() {
  usize n = repeats(10);
  usize s = scale(1);

  std::printf("Figure 4: TEE-Perf overhead relative to perf "
              "(Phoenix in simulated SGX, %zu threads, min of %zu runs)\n",
              kThreads, n);
  print_rule('=');
  std::printf("%-20s %12s %12s %10s %10s\n", "benchmark", "perf(ms)",
              "teeperf(ms)", "relative", "paper");
  print_rule();

  // TEE costs common to both configurations. Transition costs barely matter
  // here (one ecall per run); the comparison isolates profiling overhead.
  tee::Enclave enclave(tee::CostModel::sgx_like());

  struct PaperRef {
    const char* name;
    const char* paper;
  };
  const PaperRef kFigure4[] = {
      {"matrix_multiply", "~1-2x"},   {"word_count", "~2-3x"},
      {"string_match", "5.7x"},       {"linear_regression", "0.92x"},
      {"histogram", "~1-2x"},
  };

  // Every kernel is prepared up front and the runs interleave: each round
  // runs every kernel once per configuration, so a busy period on a shared
  // host lands on all kernels' samples alike instead of on one kernel's
  // min-of-N.
  std::vector<std::unique_ptr<phoenix::PhoenixBenchmark>> benches;
  for (const auto& row : kFigure4) {
    auto bench = phoenix::make_benchmark(row.name);
    phoenix::SuiteParams params;
    params.scale = s;
    params.threads = kThreads;
    bench->prepare(params);
    bench->run(kThreads);  // warm-up (page in inputs, intern symbols)
    benches.push_back(std::move(bench));
  }
  std::vector<std::vector<double>> perf_ms(benches.size()), tee_ms(benches.size());
  for (usize i = 0; i < n; ++i) {
    for (usize b = 0; b < benches.size(); ++b) {
      perf_ms[b].push_back(run_once_perf(*benches[b], enclave));
      tee_ms[b].push_back(run_once_teeperf(*benches[b], enclave));
    }
  }

  std::vector<double> ratios;
  double string_match = 0, linear_regression = 0, others_max = 0;
  for (usize b = 0; b < benches.size(); ++b) {
    const PaperRef& row = kFigure4[b];
    double p = min_of(perf_ms[b]), t = min_of(tee_ms[b]);
    double rel = p > 0 ? t / p : 0;
    ratios.push_back(rel);
    std::string_view name = row.name;
    if (name == "string_match") {
      string_match = rel;
    } else {
      if (name == "linear_regression") linear_regression = rel;
      others_max = std::max(others_max, rel);
    }
    std::printf("%-20s %12.1f %12.1f %9.2fx %10s\n", row.name, p, t, rel,
                row.paper);
  }
  double gm = geomean(ratios);
  print_rule();
  std::printf("%-20s %12s %12s %9.2fx %10s\n", "geomean", "", "", gm, "1.9x");
  print_rule('=');
  // The paper's claims, with room for a simulated TEE: string_match (a call
  // per word) costs the most, linear_regression (no calls) about nothing
  // (paper 0.92x), the geomean in the low single digits (paper 1.9x).
  bool worst_ok = string_match > others_max;
  bool linreg_ok = linear_regression <= 1.25;
  bool geomean_ok = gm < 4.0;
  bool shape_ok = worst_ok && linreg_ok && geomean_ok;
  auto verdict = [](bool ok) { return ok ? "ok" : "FAILED"; };
  std::printf("\nShape checks: %s (string_match worst, %.2fx vs %.2fx: %s; "
              "linear_regression <= 1.25x, %.2fx: %s; geomean < 4x, %.2fx: %s)\n",
              verdict(shape_ok), string_match, others_max, verdict(worst_ok),
              linear_regression, verdict(linreg_ok), gm, verdict(geomean_ok));
  return shape_ok ? 0 : 1;
}
