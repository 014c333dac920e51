// The §IV-C optimization workflow on the SPDK substrate: profile the naive
// enclave port, read the bottlenecks off the profile, apply the paper's two
// fixes (pid cache, corrected timestamp cache), and show the recovery.
//
// Run:  ./enclave_io [output_dir]
#include <cstdio>
#include <string>

#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "spdk/perf_tool.h"
#include "tee/enclave.h"

using namespace teeperf;

namespace {

spdk::NvmeDeviceConfig device_config() {
  spdk::NvmeDeviceConfig cfg;
  cfg.completion_latency_ns = 80'000;
  return cfg;
}

spdk::PerfConfig perf_config() {
  spdk::PerfConfig cfg;
  cfg.duration_ns = 700'000'000;  // 0.7 s per run keeps the example snappy
  return cfg;
}

tee::CostModel enclave_costs() {
  tee::CostModel cm = tee::CostModel::sgx_like();
  cm.syscall_ocall_ns = 45'000;  // SCONE-like syscall round trip
  return cm;
}

void report(const char* label, const spdk::PerfResult& r) {
  std::printf("%-22s %10s IOPS   %8.1f MiB/s\n", label,
              with_commas(static_cast<u64>(r.iops)).c_str(), r.throughput_mib_s);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = argc > 1 ? argv[1] : make_temp_dir("teeperf_spdk_");
  make_dirs(out_dir);

  // Step 1: native baseline (no enclave).
  spdk::NvmeDevice native_dev(device_config());
  auto native = spdk::run_perf_tool(native_dev, perf_config(), spdk::SpdkMode{});
  report("native", native);

  // Step 2: naive port into the enclave, recorded by TEE-Perf.
  RecorderOptions opts;
  opts.max_entries = 1 << 21;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;

  tee::Enclave enclave(enclave_costs());
  spdk::NvmeDevice naive_dev(device_config());
  auto naive = enclave.ecall(
      [&] { return spdk::run_perf_tool(naive_dev, perf_config(), spdk::SpdkMode{}); });
  recorder->detach();
  report("naive in enclave", naive);

  recorder->dump(out_dir + "/naive");
  auto profile = analyzer::Profile::load(out_dir + "/naive");
  if (!profile) return 1;

  // Step 3: read the bottlenecks off the flame graph data.
  auto tree = flamegraph::build_frame_tree(profile->folded_stacks());
  double getpid_frac = flamegraph::frame_fraction(tree, "getpid");
  double rdtsc_frac = flamegraph::frame_fraction(tree, "rdtsc");
  std::printf("\nTEE-Perf finds: getpid %.1f%% of runtime, rdtsc %.1f%%\n",
              getpid_frac * 100, rdtsc_frac * 100);
  write_file(out_dir + "/naive_flame.svg",
             flamegraph::render_profile_svg(
                 analyzer::MergeableProfile::from_profile(*profile),
                 {.title = "naive SPDK in enclave"}));

  // Step 4: apply the paper's fixes and re-measure.
  spdk::SpdkMode optimized;
  optimized.cache_pid = true;
  optimized.cache_ticks = true;
  tee::Enclave enclave2(enclave_costs());
  spdk::NvmeDevice opt_dev(device_config());
  auto opt = enclave2.ecall(
      [&] { return spdk::run_perf_tool(opt_dev, perf_config(), optimized); });
  report("optimized in enclave", opt);

  std::printf("\nimprovement over naive: %.1fx (paper: 14.7x)\n",
              opt.iops / naive.iops);
  std::printf("flame graph: %s/naive_flame.svg\n", out_dir.c_str());
  return 0;
}
