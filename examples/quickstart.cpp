// Quickstart: profile a small workload with TEE-Perf's four stages in one
// process — record (stage 2), analyze (stage 3), visualize (stage 4). The
// "compiler stage" here is the RAII scope API; see instrumented_app.cpp for
// the real -finstrument-functions route.
//
// Run:  ./quickstart [output_dir]
#include <cstdio>
#include <string>

#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "common/fileutil.h"
#include "common/spin.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"

namespace {

using namespace teeperf;

void parse_input() {
  TEEPERF_FUNCTION();
  spin_for_ns(3'000'000);
}

void transform_chunk() {
  TEEPERF_FUNCTION();
  spin_for_ns(1'500'000);
}

void write_output() {
  TEEPERF_FUNCTION();
  spin_for_ns(2'000'000);
}

void pipeline() {
  TEEPERF_FUNCTION();
  parse_input();
  for (int i = 0; i < 4; ++i) transform_chunk();
  write_output();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : make_temp_dir("teeperf_quickstart_");
  make_dirs(out_dir);

  // Stage 2: the recorder — shared-memory log + counter + runtime hooks.
  RecorderOptions opts;
  opts.max_entries = 1 << 16;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) {
    std::fprintf(stderr, "failed to set up recorder\n");
    return 1;
  }

  pipeline();  // the measured application

  recorder->detach();
  auto stats = recorder->stats();
  std::printf("recorded %llu log entries (%llu dropped)\n",
              static_cast<unsigned long long>(stats.entries),
              static_cast<unsigned long long>(stats.dropped));

  // Persist the log + symbols for offline analysis.
  std::string prefix = out_dir + "/quickstart";
  recorder->dump(prefix);

  // Stage 3: the analyzer — reconstruct stacks, report per-method timing.
  auto profile = analyzer::Profile::load(prefix);
  if (!profile) {
    std::fprintf(stderr, "failed to load %s.log\n", prefix.c_str());
    return 1;
  }
  auto agg = analyzer::MergeableProfile::from_profile(*profile);
  std::printf("\n%s\n\n%s\n", analyzer::mprof_summary(agg).c_str(),
              analyzer::method_report(agg).c_str());

  // Stage 4: the visualizer — a flame graph SVG.
  flamegraph::SvgOptions svg_opts;
  svg_opts.title = "quickstart pipeline";
  write_file(out_dir + "/quickstart.svg",
             flamegraph::render_profile_svg(agg, svg_opts));
  write_file(out_dir + "/quickstart.folded", agg.folded());
  flamegraph::TimelineOptions tl;
  tl.title = "quickstart timeline";
  write_file(out_dir + "/quickstart_timeline.svg",
             flamegraph::render_timeline_svg(*profile, tl));
  std::printf("flame graph: %s/quickstart.svg\n", out_dir.c_str());
  std::printf("timeline:    %s/quickstart_timeline.svg\n", out_dir.c_str());
  return 0;
}
