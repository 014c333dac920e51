// Figure 6 + the §IV-C numbers: the SPDK-in-SGX case study.
//
// Three configurations of the SPDK perf tool (random 80/20 read/write,
// 4 KiB blocks):
//   native              — no enclave                 (paper: 223,808 IOPS, 874 MiB/s)
//   naive in enclave    — getpid + rdtsc trapped     (paper:  15,821 IOPS, 61.8 MiB/s)
//   optimized in enclave— pid cache + corrected tick (paper: 232,736 IOPS, 909 MiB/s)
// Improvement factor optimized/naive (paper: 14.7×). Flame graphs of the
// naive and optimized enclave runs (Figure 6 top/bottom) land in
// $TEEPERF_RESULTS; the naive one must show getpid ≈ 72% and rdtsc ≈ 20%.
//
// Throughput rows are measured *unrecorded* (the paper's table is from
// plain runs); the flame-graph runs are separate recorded runs.
#include <cstdio>

#include "analyzer/stream.h"
#include "bench/bench_util.h"
#include "common/stringutil.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "spdk/perf_tool.h"
#include "tee/enclave.h"

using namespace teeperf;
using namespace teeperf::benchharness;

namespace {

spdk::NvmeDeviceConfig device_config() {
  spdk::NvmeDeviceConfig cfg;  // defaults calibrated to a DC P3700-class path
  cfg.completion_latency_ns = 80'000;
  return cfg;
}

spdk::PerfConfig perf_config() {
  spdk::PerfConfig cfg;
  cfg.queue_depth = 32;
  cfg.block_size = 4096;
  cfg.read_fraction = 0.8;
  cfg.duration_ns = 900'000'000 * static_cast<u64>(scale(1));
  return cfg;
}

// The enclave cost model for this case study. The paper's naive port spends
// 72% in getpid: SCONE-era syscall round trips out of an enclave cost tens
// of microseconds once queueing and TLB effects are included.
tee::CostModel casestudy_costs() {
  tee::CostModel cm = tee::CostModel::sgx_like();
  cm.syscall_ocall_ns = 45'000;
  cm.rdtsc_trap_ns = 5'500;
  return cm;
}

spdk::PerfResult run_native() {
  spdk::NvmeDevice dev(device_config());
  return spdk::run_perf_tool(dev, perf_config(), spdk::SpdkMode{});
}

spdk::PerfResult run_enclave(const spdk::SpdkMode& mode) {
  tee::Enclave enclave(casestudy_costs());
  spdk::NvmeDevice dev(device_config());
  return enclave.ecall([&] { return spdk::run_perf_tool(dev, perf_config(), mode); });
}

// Recorded variant for the flame graphs.
void record_flamegraph(const spdk::SpdkMode& mode, const std::string& path,
                       const char* title, double* getpid_frac, double* rdtsc_frac) {
  RecorderOptions opts;
  opts.max_entries = 1ull << 22;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return;
  tee::Enclave enclave(casestudy_costs());
  spdk::NvmeDevice dev(device_config());
  spdk::PerfConfig cfg = perf_config();
  cfg.duration_ns /= 3;  // recorded run can be shorter
  enclave.ecall([&] { spdk::run_perf_tool(dev, cfg, mode); });
  recorder->detach();

  auto agg = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(recorder->log()));
  flamegraph::FoldedStacks folded(agg.stacks.begin(), agg.stacks.end());
  auto tree = flamegraph::build_frame_tree(folded);
  *getpid_frac = flamegraph::frame_fraction(tree, "getpid");
  *rdtsc_frac = flamegraph::frame_fraction(tree, "rdtsc");

  flamegraph::SvgOptions svg;
  svg.title = title;
  write_file(path + ".svg", flamegraph::render_svg(folded, svg));
  write_file(path + ".folded", agg.folded());
}

void print_row(const char* label, const spdk::PerfResult& r, const char* paper_iops,
               const char* paper_tp) {
  std::printf("%-22s %12s %10.1f   %14s %10s\n", label,
              with_commas(static_cast<u64>(r.iops)).c_str(), r.throughput_mib_s,
              paper_iops, paper_tp);
}

}  // namespace

int main() {
  std::string out = results_dir();

  std::printf("SPDK case study (§IV-C): random 80%% read / 20%% write, 4 KiB "
              "blocks, QD %zu\n",
              perf_config().queue_depth);
  print_rule('=');
  std::printf("%-22s %12s %10s   %14s %10s\n", "configuration", "IOPS", "MiB/s",
              "paper IOPS", "paper MiB/s");
  print_rule();

  auto native = run_native();
  print_row("native", native, "223,808", "874");

  auto naive = run_enclave(spdk::SpdkMode{});
  print_row("naive in enclave", naive, "15,821", "61.8");

  spdk::SpdkMode optimized;
  optimized.cache_pid = true;
  optimized.cache_ticks = true;
  optimized.ticks_correction_interval = 128;
  auto opt = run_enclave(optimized);
  print_row("optimized in enclave", opt, "232,736", "909");

  print_rule();
  std::printf("improvement optimized/naive: %.1fx   (paper: 14.7x)\n",
              naive.iops > 0 ? opt.iops / naive.iops : 0.0);
  std::printf("optimized vs native:         %.2fx  (paper: 1.04x — optimized "
              "beats native because caching also removes native's "
              "getpid/rdtsc)\n",
              native.iops > 0 ? opt.iops / native.iops : 0.0);
  print_rule('=');

  double naive_getpid = 0, naive_rdtsc = 0, opt_getpid = 0, opt_rdtsc = 0;
  record_flamegraph(spdk::SpdkMode{}, out + "/fig6_naive",
                    "Figure 6 (top): naive SPDK in enclave", &naive_getpid,
                    &naive_rdtsc);
  record_flamegraph(optimized, out + "/fig6_optimized",
                    "Figure 6 (bottom): optimized SPDK in enclave", &opt_getpid,
                    &opt_rdtsc);

  std::printf("\nFigure 6 frame shares (recorded runs):\n");
  std::printf("  naive:     getpid %5.1f%% (paper ~72%%)   rdtsc %5.1f%% "
              "(paper ~20%%)\n",
              naive_getpid * 100, naive_rdtsc * 100);
  std::printf("  optimized: getpid %5.1f%% (paper ~0%%)    rdtsc %5.1f%% "
              "(paper ~0%%)\n",
              opt_getpid * 100, opt_rdtsc * 100);
  bool shape_ok = naive_getpid > 0.5 && naive_rdtsc > 0.05 &&
                  opt_getpid + opt_rdtsc < 0.1;
  std::printf("Shape checks: naive getpid > 50%%, rdtsc > 5%%; optimized "
              "getpid + rdtsc < 10%%: %s\n", shape_ok ? "ok" : "FAILED");
  std::printf("wrote %s/fig6_naive.svg and %s/fig6_optimized.svg\n", out.c_str(),
              out.c_str());
  return shape_ok ? 0 : 1;
}
