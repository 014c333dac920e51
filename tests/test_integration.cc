// End-to-end integration tests: the full four-stage pipeline against the
// real substrates, asserting the *findings* the paper's evaluation reports
// (not just that the machinery runs).
#include <gtest/gtest.h>

#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "core/profiler.h"
#include "flamegraph/flamegraph.h"
#include "kvstore/db.h"
#include "kvstore/db_bench.h"
#include "phoenix/phoenix.h"
#include "spdk/perf_tool.h"
#include "tee/enclave.h"

namespace teeperf {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    if (runtime::attached()) runtime::detach();
  }

  analyzer::MergeableProfile analyze(const Recorder& rec) {
    return analyzer::MergeableProfile::from_tree(
        analyzer::StreamAnalyzer::analyze_log(rec.log()));
  }
};

TEST_F(IntegrationTest, PhoenixProfileAttributesTimeToKernel) {
  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());
  auto in = phoenix::gen_string_match(50'000, 1);
  phoenix::run_string_match(in, 2);
  rec->detach();

  auto agg = analyze(*rec);
  EXPECT_EQ(agg.stats.stray_returns, 0u);
  EXPECT_EQ(agg.stats.mismatched_returns, 0u);

  // match_word must be the most-called method, with one invocation per word.
  auto match = agg.methods.find("phoenix::string_match::match_word");
  ASSERT_NE(match, agg.methods.end());
  EXPECT_EQ(match->second.count, 50'000u);

  // The folded stacks must nest match_word under map_worker under the
  // kernel root.
  bool found_path = false;
  for (auto& [path, v] : agg.stacks) {
    if (path == "phoenix::string_match;phoenix::string_match::map_worker;"
                "phoenix::string_match::match_word") {
      found_path = v > 0;
    }
  }
  EXPECT_TRUE(found_path);
}

TEST_F(IntegrationTest, KvstoreInEnclaveShowsStatsNowBottleneck) {
  std::string dir = make_temp_dir("teeperf_int_kvs_");
  std::unique_ptr<kvs::DB> db;
  ASSERT_TRUE(kvs::DB::open({}, dir + "/db", &db).is_ok());

  kvs::bench::BenchConfig cfg;
  cfg.num_ops = 400;
  cfg.key_space = 400;
  kvs::bench::run_fill_random(*db, cfg);

  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());
  tee::Enclave enclave(tee::CostModel::sgx_like());
  enclave.ecall([&] { kvs::bench::run_read_random_write_random(*db, cfg); });
  rec->detach();

  auto profile = analyze(*rec);
  auto tree = flamegraph::build_frame_tree(profile);
  double now_frac = flamegraph::frame_fraction(tree, "kvs::Stats::Now");
  // Two trapped clock reads per op must dominate a 400-op in-enclave run —
  // the Figure 5 finding.
  EXPECT_GT(now_frac, 0.3) << "Stats::Now should dominate inside the enclave";
  remove_tree(dir);
}

TEST_F(IntegrationTest, KvstoreNativeDoesNotShowThatBottleneck) {
  std::string dir = make_temp_dir("teeperf_int_kvs2_");
  std::unique_ptr<kvs::DB> db;
  ASSERT_TRUE(kvs::DB::open({}, dir + "/db", &db).is_ok());
  kvs::bench::BenchConfig cfg;
  cfg.num_ops = 400;
  cfg.key_space = 400;
  kvs::bench::run_fill_random(*db, cfg);

  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());
  kvs::bench::run_read_random_write_random(*db, cfg);  // no enclave
  rec->detach();

  auto profile = analyze(*rec);
  auto tree = flamegraph::build_frame_tree(profile);
  double now_frac = flamegraph::frame_fraction(tree, "kvs::Stats::Now");
  // Outside the TEE, the clock is cheap: the same workload must attribute
  // far less of its time there. (The delta *is* the paper's point.)
  EXPECT_LT(now_frac, 0.3);
  remove_tree(dir);
}

TEST_F(IntegrationTest, SpdkNaiveProfileFindsGetpidAndRdtsc) {
  RecorderOptions opts;
  opts.max_entries = 1 << 20;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());

  tee::CostModel cm = tee::CostModel::zero();
  cm.syscall_ocall_ns = 45'000;
  cm.rdtsc_trap_ns = 5'000;
  tee::Enclave enclave(cm);
  spdk::NvmeDeviceConfig dev_cfg;
  dev_cfg.completion_latency_ns = 30'000;
  spdk::NvmeDevice dev(dev_cfg);
  spdk::PerfConfig cfg;
  cfg.duration_ns = 150'000'000;
  cfg.queue_depth = 8;
  enclave.ecall([&] { spdk::run_perf_tool(dev, cfg, spdk::SpdkMode{}); });
  rec->detach();

  auto profile = analyze(*rec);
  auto tree = flamegraph::build_frame_tree(profile);
  double getpid_frac = flamegraph::frame_fraction(tree, "getpid");
  double rdtsc_frac = flamegraph::frame_fraction(tree, "rdtsc");
  EXPECT_GT(getpid_frac, 0.4);  // paper: 72%
  EXPECT_GT(rdtsc_frac, 0.05);  // paper: 20%

  // getpid must hang under allocate_request, as in Figure 6.
  bool getpid_under_alloc = false;
  for (auto& [path, v] : profile.stacks) {
    if (v > 0 && path.find("allocate_request;getpid") != std::string::npos) {
      getpid_under_alloc = true;
    }
  }
  EXPECT_TRUE(getpid_under_alloc);
}

TEST_F(IntegrationTest, DumpedProfileMatchesLiveProfile) {
  std::string dir = make_temp_dir("teeperf_int_dump_");
  RecorderOptions opts;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec->attach());
  {
    TEEPERF_SCOPE("int::outer");
    TEEPERF_SCOPE("int::inner");
  }
  rec->detach();

  auto live = analyzer::InvocationTable::from_log(rec->log());
  ASSERT_TRUE(rec->dump(dir + "/run"));
  auto loaded = analyzer::InvocationTable::load(dir + "/run");
  ASSERT_TRUE(loaded.has_value());

  ASSERT_EQ(live.invocations().size(), loaded->invocations().size());
  for (usize i = 0; i < live.invocations().size(); ++i) {
    EXPECT_EQ(live.invocations()[i].method, loaded->invocations()[i].method);
    EXPECT_EQ(live.invocations()[i].inclusive(),
              loaded->invocations()[i].inclusive());
    EXPECT_EQ(live.name(live.invocations()[i].method),
              loaded->name(loaded->invocations()[i].method));
  }
  remove_tree(dir);
}

TEST_F(IntegrationTest, SelectiveProfilingShrinksLogOnRealWorkload) {
  auto in = phoenix::gen_string_match(20'000, 2);

  RecorderOptions full_opts;
  full_opts.max_entries = 1 << 20;
  auto full = Recorder::create(full_opts);
  ASSERT_TRUE(full->attach());
  phoenix::run_string_match(in, 2);
  full->detach();

  Filter filter(Filter::Mode::kDenylist);
  filter.add_name("phoenix::string_match::match_word");
  RecorderOptions sel_opts;
  sel_opts.max_entries = 1 << 20;
  sel_opts.filter = &filter;
  auto selective = Recorder::create(sel_opts);
  ASSERT_TRUE(selective->attach());
  phoenix::run_string_match(in, 2);
  selective->detach();

  EXPECT_LT(selective->stats().entries, full->stats().entries / 10);
  // The filtered profile still reconstructs cleanly (dropped frames are
  // whole call+return pairs).
  auto profile = analyze(*selective);
  EXPECT_EQ(profile.stats.stray_returns, 0u);
  EXPECT_EQ(profile.stats.mismatched_returns, 0u);
}

}  // namespace
}  // namespace teeperf
