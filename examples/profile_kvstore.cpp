// Profiles the LSM key-value store's db_bench workload inside the simulated
// enclave — the Figure 5 scenario. Prints the method report and writes the
// flame graph that exposes Stats::Now / RandomGenerator as the bottlenecks.
//
// Run:  ./profile_kvstore [output_dir]
#include <cstdio>
#include <string>

#include "analyzer/query.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "kvstore/db.h"
#include "kvstore/db_bench.h"
#include "tee/enclave.h"

using namespace teeperf;

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : make_temp_dir("teeperf_kvs_");
  make_dirs(out_dir);
  std::string db_dir = out_dir + "/db";

  kvs::Options options;
  std::unique_ptr<kvs::DB> db;
  auto status = kvs::DB::open(options, db_dir, &db);
  if (!status.is_ok()) {
    std::fprintf(stderr, "db open: %s\n", status.to_string().c_str());
    return 1;
  }

  kvs::bench::BenchConfig cfg;
  cfg.num_ops = 5'000;
  cfg.key_space = 5'000;
  kvs::bench::run_fill_random(*db, cfg);  // unprofiled warm-up fill

  RecorderOptions opts;
  opts.max_entries = 1 << 21;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;

  // The measured run: db_bench readrandomwriterandom (80% reads) inside the
  // enclave simulator, where every Stats::Now() clock read is a trapped
  // syscall.
  tee::Enclave enclave(tee::CostModel::sgx_like());
  auto result = enclave.ecall(
      [&] { return kvs::bench::run_read_random_write_random(*db, cfg); });

  recorder->detach();
  std::printf("ops=%llu (%llu reads / %llu writes), %.0f ops/s\n",
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.reads),
              static_cast<unsigned long long>(result.writes), result.ops_per_sec);

  std::string prefix = out_dir + "/kvstore";
  recorder->dump(prefix);
  auto agg = analyzer::StreamAnalyzer::analyze(prefix);
  auto table = analyzer::InvocationTable::load(prefix);
  if (!agg || !table) return 1;
  std::printf("\n%s\n", analyzer::method_report(*agg, 15).c_str());

  // The query interface (§II-C): who calls Stats::Now, and how often?
  u64 now_id = SymbolRegistry::instance().intern("kvs::Stats::Now");
  auto now_calls = table->where_method(now_id);
  std::printf("Stats::Now invocations: %zu, total %.1f ms\n", now_calls.count(),
              table->ticks_to_ns(now_calls.sum_inclusive()) / 1e6);
  for (auto& g : now_calls.group_by_caller()) {
    std::printf("  called %zu times by %s\n", g.count, g.key.c_str());
  }

  flamegraph::SvgOptions svg_opts;
  svg_opts.title = "db_bench readrandomwriterandom (80% reads) in enclave";
  write_file(out_dir + "/kvstore_flame.svg",
             flamegraph::render_profile_svg(*agg, svg_opts));
  std::printf("\nflame graph: %s/kvstore_flame.svg\n", out_dir.c_str());
  return 0;
}
