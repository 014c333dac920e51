// Ablation A5 — architecture independence ("Generality", §I design goal).
//
// TEE-Perf's pitch is one profiler across TEEs: "many applications need to
// be profiled across different TEE platforms". This harness runs the same
// db_bench workload under three TEE cost profiles — SGX-like, ARM
// TrustZone-like and AMD SEV-like — with the *identical* profiler stack,
// and shows that the top bottleneck TEE-Perf reports is different on each,
// because each architecture hurts a different operation:
//   SGX       → trapped clock syscalls dominate (Stats::Now);
//   TrustZone → cheaper world switches: syscalls still visible but smaller;
//   SEV       → no transitions at all: memory encryption and the actual
//               storage work lead.
#include <cstdio>

#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "bench/bench_util.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "kvstore/db.h"
#include "kvstore/db_bench.h"
#include "tee/enclave.h"

using namespace teeperf;
using namespace teeperf::benchharness;

namespace {

struct TeeRow {
  const char* name;
  tee::CostModel costs;
};

void run_one(const TeeRow& row) {
  std::string db_dir = make_temp_dir("teeperf_multitee_");
  kvs::Options options;
  std::unique_ptr<kvs::DB> db;
  if (!kvs::DB::open(options, db_dir + "/db", &db).is_ok()) return;

  kvs::bench::BenchConfig cfg;
  cfg.num_ops = 3'000 * scale(1);
  cfg.key_space = cfg.num_ops;
  kvs::bench::run_fill_random(*db, cfg);

  RecorderOptions opts;
  opts.max_entries = 1ull << 21;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return;

  tee::Enclave enclave(row.costs);
  auto result = enclave.ecall(
      [&] { return kvs::bench::run_read_random_write_random(*db, cfg); });
  recorder->detach();

  auto profile = analyzer::Profile::from_log(
      recorder->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));
  auto tree = flamegraph::build_frame_tree(profile.folded_stacks());

  double now = flamegraph::frame_fraction(tree, "kvs::Stats::Now");
  double get = flamegraph::frame_fraction(tree, "kvs::DB::Get");
  double gen =
      flamegraph::frame_fraction(tree, "kvs::RandomGenerator::RandomGenerator");

  // The method with the most exclusive time; ties go to the first name.
  auto agg = analyzer::MergeableProfile::from_profile(profile);
  const std::string* top = nullptr;
  for (const auto& [name, m] : agg.methods) {
    if (!top || m.exclusive_total > agg.methods.at(*top).exclusive_total) top = &name;
  }

  std::printf("%-12s %10.0f ops/s   Stats::Now %5.1f%%  DB::Get %5.1f%%  "
              "RandomGen %5.1f%%   top: %s\n",
              row.name, result.ops_per_sec, now * 100, get * 100, gen * 100,
              top ? top->c_str() : "?");
  remove_tree(db_dir);
}

}  // namespace

int main() {
  std::printf("Ablation A5: one profiler, three TEE architectures "
              "(db_bench readrandomwriterandom, 80%% reads)\n");
  print_rule('=');
  const TeeRow rows[] = {
      {"sgx", tee::CostModel::sgx_like()},
      {"trustzone", tee::CostModel::trustzone_like()},
      {"sev", tee::CostModel::sev_like()},
      {"native", tee::CostModel::zero()},
  };
  for (const TeeRow& row : rows) run_one(row);
  print_rule('=');
  std::printf("Expected shape: identical tooling, different verdicts — the "
              "trapped-clock share shrinks from SGX to TrustZone to SEV, and "
              "throughput rises accordingly.\n");
  return 0;
}
