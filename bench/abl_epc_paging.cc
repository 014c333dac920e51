// Ablation A6 — making EPC paging visible (§I motivation).
//
// "the cost of accessing memory beyond the secure physical memory region
// ... incurs very high performance overheads due to secure paging ...
// up to 2000×."
//
// Two identical random-access workloads inside the enclave, one with a
// working set inside the EPC and one at 4× the EPC: TEE-Perf's profile of
// the second shows an `epc::secure_paging` frame carrying the overhead —
// the exact insight a developer needs to shrink the working set.
#include <cstdio>

#include "analyzer/stream.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/spin.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "tee/enclave.h"
#include "tee/epc.h"

using namespace teeperf;
using namespace teeperf::benchharness;

namespace {

constexpr usize kEpcLimitPages = 2048;  // 8 MiB of secure memory
constexpr usize kAccesses = 60'000;

double run_case(const char* label, usize buffer_pages, double* paging_frac) {
  tee::CostModel cm = tee::CostModel::sgx_like();
  cm.epc_pages = kEpcLimitPages;
  tee::Enclave enclave(cm);
  tee::EpcAllocator epc(&enclave, cm.epc_pages);
  auto buffer = epc.allocate(buffer_pages * tee::kEpcPageSize);

  // Warm-up outside the measurement: cold faults are not the story; steady
  // state is (a working set inside the EPC never faults again, one beyond
  // it thrashes forever).
  for (usize page = 0; page < buffer_pages; ++page) {
    buffer->touch(page * tee::kEpcPageSize, 1, true);
  }

  RecorderOptions opts;
  opts.max_entries = 1ull << 20;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 0;

  Xorshift64 rng(7);
  u64 t0 = monotonic_ns();
  enclave.ecall([&] {
    TEEPERF_SCOPE("workload::random_access");
    for (usize i = 0; i < kAccesses; ++i) {
      usize offset = static_cast<usize>(rng.next_below(buffer->size() - 64));
      u8* p = buffer->touch(offset, 64, /*write=*/true);
      *p = static_cast<u8>(i);
    }
  });
  double ms = static_cast<double>(monotonic_ns() - t0) / 1e6;
  recorder->detach();

  auto tree = flamegraph::build_frame_tree(analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(recorder->log())));
  *paging_frac = flamegraph::frame_fraction(tree, "epc::secure_paging");

  std::printf("%-26s %10.1f ms   page_ins=%8llu   secure_paging share %5.1f%%\n",
              label, ms,
              static_cast<unsigned long long>(
                  enclave.counters().page_ins.load(std::memory_order_relaxed)),
              *paging_frac * 100);
  return ms;
}

}  // namespace

int main() {
  std::printf("Ablation A6: EPC secure paging in the profile "
              "(%zu random 64 B writes, EPC = %zu pages)\n",
              kAccesses, kEpcLimitPages);
  print_rule('=');
  double in_frac = 0, out_frac = 0;
  double in_ms = run_case("working set 0.5x EPC", kEpcLimitPages / 2, &in_frac);
  double out_ms = run_case("working set 4x EPC", kEpcLimitPages * 4, &out_frac);
  print_rule();
  std::printf("slowdown from paging: %.1fx; the profile pins %5.1f%% of the "
              "slow run on epc::secure_paging\n",
              in_ms > 0 ? out_ms / in_ms : 0, out_frac * 100);
  print_rule('=');
  std::printf("Expected shape: the in-EPC run shows ~0%% paging; the 4x run "
              "is many times slower with secure_paging dominating — the §I "
              "pathology, made visible by method-level tracing.\n");
  return 0;
}
