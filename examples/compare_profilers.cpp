// Side-by-side comparison of the two measurement models on one workload:
// TEE-Perf (method-level tracing, stage 2+3) and the perf-sim baseline
// (instruction-pointer sampling). Prints both profiles and both flame
// graphs' folded stacks so the difference in what each can see is concrete:
// the trace knows call counts and exact per-invocation durations; the
// sampler only knows where the CPU happened to be at its ticks.
//
// Run:  ./compare_profilers [output_dir]
#include <cstdio>
#include <string>

#include "analyzer/fold.h"
#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "common/fileutil.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "perfsim/sampler.h"
#include "phoenix/phoenix.h"

using namespace teeperf;

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : make_temp_dir("teeperf_cmp_");
  make_dirs(out_dir);

  auto input = phoenix::gen_word_count(150'000, 3);
  constexpr int kRounds = 8;  // long enough for the sampler to see something

  // --- pass 1: TEE-Perf tracing -------------------------------------------
  RecorderOptions opts;
  opts.max_entries = 1 << 21;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;
  for (int i = 0; i < kRounds; ++i) phoenix::run_word_count(input, 2);
  recorder->detach();

  auto traced = analyzer::Profile::from_log(
      recorder->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));
  analyzer::SessionTree tree = traced.path_tree();
  auto agg = analyzer::MergeableProfile::from_tree(tree);
  std::printf("=== TEE-Perf (traced: %llu events, exact call counts) ===\n%s\n",
              static_cast<unsigned long long>(recorder->stats().entries),
              analyzer::method_report(agg, 8).c_str());
  std::printf("%s\n", analyzer::call_tree_report(tree, 0.02).c_str());

  // --- pass 2: sampling baseline -------------------------------------------
  perfsim::SamplerOptions sopts;
  sopts.frequency_hz = 997;
  perfsim::SamplingProfiler sampler(sopts);
  if (!runtime::attach(nullptr, CounterMode::kTsc, nullptr)) return 1;
  sampler.start();
  for (int i = 0; i < kRounds; ++i) phoenix::run_word_count(input, 2);
  sampler.stop();
  runtime::detach();

  std::printf("=== perf-sim (sampled: %zu samples, no call counts) ===\n",
              sampler.sample_count());
  std::printf("%-52s %10s\n", "method (leaf attribution)", "samples");
  for (auto& [id, n] : sampler.leaf_counts()) {
    std::printf("%-52s %10zu\n",
                SymbolRegistry::instance().name_of(id).c_str(), n);
  }

  // --- both as flame graphs -------------------------------------------------
  flamegraph::SvgOptions svg;
  svg.title = "traced (TEE-Perf)";
  write_file(out_dir + "/traced.svg",
             flamegraph::render_profile_svg(agg, svg));
  svg.title = "sampled (perf-sim)";
  auto sampled_folded = sampler.folded_stacks(
      [](u64 id) { return SymbolRegistry::instance().name_of(id); });
  write_file(out_dir + "/sampled.svg",
             flamegraph::render_svg(sampled_folded, svg));
  std::printf("\nflame graphs: %s/traced.svg, %s/sampled.svg\n", out_dir.c_str(),
              out_dir.c_str());
  return 0;
}
