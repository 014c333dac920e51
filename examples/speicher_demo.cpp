// The Speicher-lite walk-through: a rollback-protected WAL in the enclave,
// an attack that classic storage cannot detect, and TEE-Perf profiling the
// cost of the defence (and the async-counter fix).
//
// Run:  ./speicher_demo [output_dir]
#include <cstdio>
#include <string>

#include "analyzer/fold.h"
#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "common/fileutil.h"
#include "core/profiler.h"
#include "kvstore/secure.h"
#include "tee/enclave.h"

using namespace teeperf;
using namespace teeperf::kvs::secure;

namespace {

MacKey demo_key() {
  MacKey k{};
  for (usize i = 0; i < k.size(); ++i) k[i] = static_cast<u8>(0x42 + i);
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = argc > 1 ? argv[1] : make_temp_dir("teeperf_speicher_");
  make_dirs(dir);

  // --- write an epoch of authenticated records, then "bank" it -------------
  TrustedCounter counter(dir + "/trusted.ctr", TrustedCounter::Mode::kAsync,
                         /*increment_cost_ns=*/5'000'000);
  {
    SecureWalWriter w(demo_key(), &counter);
    w.open(dir + "/bank.wal", true);
    w.append("deposit alice 100");
    w.append("deposit bob 50");
    w.flush();
  }
  auto epoch1 = read_file(dir + "/bank.wal");

  // --- the world moves on ---------------------------------------------------
  {
    SecureWalWriter w(demo_key(), &counter);
    w.open(dir + "/bank.wal", true);
    w.append("deposit alice 100");
    w.append("deposit bob 50");
    w.append("withdraw alice 90");  // alice spends her money
    w.flush();
  }

  // --- the attack: restore the pre-withdrawal WAL ---------------------------
  write_file(dir + "/bank.wal", *epoch1);
  auto verdict = secure_wal_read(dir + "/bank.wal", demo_key(), counter);
  std::printf("rollback attack: tampered=%s rolled_back=%s "
              "(file counter %llu vs trusted %llu)\n",
              verdict.tampered ? "yes" : "no",
              verdict.rolled_back ? "YES — attack detected" : "no",
              static_cast<unsigned long long>(verdict.last_counter),
              static_cast<unsigned long long>(counter.stable_value()));

  // --- what does the defence cost? Ask the profiler. ------------------------
  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;

  tee::Enclave enclave(tee::CostModel::sgx_like());
  enclave.ecall([&] {
    // Sync counter: the naive design.
    TrustedCounter sync_ctr(dir + "/sync.ctr", TrustedCounter::Mode::kSync,
                            5'000'000);
    SecureWalWriter w(demo_key(), &sync_ctr);
    w.open(dir + "/sync.wal", true);
    for (int i = 0; i < 40; ++i) w.append("record " + std::to_string(i));
    w.flush();
  });
  recorder->detach();

  auto profile = analyzer::Profile::from_log(
      recorder->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));
  analyzer::SessionTree tree = profile.path_tree();
  std::printf("\nprofile of the *synchronous* counter design:\n%s\n",
              analyzer::method_report(analyzer::MergeableProfile::from_tree(tree), 6)
                  .c_str());
  std::printf("%s\n", analyzer::bottom_up_report(tree, 3, 3).c_str());
  std::printf("TEE-Perf's verdict: move the counter off the critical path — "
              "which is exactly Speicher's asynchronous trusted counter "
              "(see bench/abl_secure_wal for the before/after).\n");
  return 0;
}
