// Figure 5: flame graph of the LSM store's db_bench (readrandomwriterandom,
// 80% reads) recorded by TEE-Perf inside the simulated enclave.
//
// The paper's finding: the benchmark harness itself dominates — most time
// goes to rocksdb::Stats::Now() (a clock read per op, a trapped syscall
// inside the TEE) and rocksdb::RandomGenerator::RandomGenerator() (building
// the compressible value buffer). This harness regenerates the flame graph
// (SVG + folded stacks under $TEEPERF_RESULTS) and prints the top-method
// table with those two frames' shares.
#include <cstdio>

#include "analyzer/query.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "bench/bench_util.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "kvstore/db.h"
#include "kvstore/db_bench.h"
#include "tee/enclave.h"

using namespace teeperf;
using namespace teeperf::benchharness;

int main() {
  std::string out = results_dir();
  std::string db_dir = make_temp_dir("teeperf_fig5_db_");

  kvs::Options options;
  std::unique_ptr<kvs::DB> db;
  if (!kvs::DB::open(options, db_dir, &db).is_ok()) {
    std::fprintf(stderr, "db open failed\n");
    return 1;
  }

  kvs::bench::BenchConfig cfg;
  cfg.num_ops = 6'000 * scale(1);
  cfg.key_space = cfg.num_ops;
  cfg.value_size = 100;
  cfg.read_fraction = 0.8;
  cfg.generator_buffer = 4u << 20;  // per-run value buffer (ctor cost)

  kvs::bench::run_fill_random(*db, cfg);  // unprofiled preload

  RecorderOptions opts;
  opts.max_entries = 1ull << 22;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;

  tee::Enclave enclave(tee::CostModel::sgx_like());
  auto result = enclave.ecall(
      [&] { return kvs::bench::run_read_random_write_random(*db, cfg); });
  recorder->detach();

  auto agg = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(recorder->log()));

  std::printf("Figure 5: db_bench readrandomwriterandom (80%% reads) in "
              "simulated SGX, recorded by TEE-Perf\n");
  print_rule('=');
  std::printf("ops=%llu  reads=%llu  writes=%llu  %.0f ops/s\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.reads),
              static_cast<unsigned long long>(result.writes), result.ops_per_sec);
  std::printf("%s\n\n", analyzer::mprof_summary(agg).c_str());
  std::printf("%s\n", analyzer::method_report(agg, 12).c_str());

  auto tree = flamegraph::build_frame_tree(agg);
  double now_frac = flamegraph::frame_fraction(tree, "kvs::Stats::Now");
  double gen_frac =
      flamegraph::frame_fraction(tree, "kvs::RandomGenerator::RandomGenerator");
  double get_frac = flamegraph::frame_fraction(tree, "kvs::DB::Get");

  print_rule();
  std::printf("frame shares of total runtime (paper: Stats::Now and "
              "RandomGenerator dominate):\n");
  std::printf("  kvs::Stats::Now                        %5.1f%%\n", now_frac * 100);
  std::printf("  kvs::RandomGenerator::RandomGenerator  %5.1f%%\n", gen_frac * 100);
  std::printf("  kvs::DB::Get (the actual storage work) %5.1f%%\n", get_frac * 100);
  bool shape_ok = now_frac > gen_frac && gen_frac > get_frac;
  std::printf("Shape checks: Stats::Now > RandomGenerator > DB::Get: %s\n",
              shape_ok ? "ok" : "FAILED");
  print_rule('=');

  write_file(out + "/fig5_kvstore.folded", agg.folded());
  flamegraph::SvgOptions svg;
  svg.title = "Figure 5: db_bench readrandomwriterandom (80% reads) under TEE-Perf";
  write_file(out + "/fig5_kvstore.svg",
             flamegraph::render_svg({agg.stacks.begin(), agg.stacks.end()}, svg));
  flamegraph::TimelineOptions tl;
  tl.title = "db_bench in enclave: timeline";
  write_file(out + "/fig5_kvstore_timeline.svg",
             flamegraph::render_timeline_svg(
                 analyzer::InvocationTable::from_log(recorder->log()), tl));
  std::printf("wrote %s/fig5_kvstore.svg, .folded and _timeline.svg\n",
              out.c_str());

  remove_tree(db_dir);
  return shape_ok ? 0 : 1;
}
