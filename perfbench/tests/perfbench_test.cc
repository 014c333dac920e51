// Tests of the benchmark itself: seeded generators are deterministic, metric
// names are well formed, and a forced loss shows up in the drop accounting.
#include <gtest/gtest.h>

#include <string>

#include "bench.h"
#include "common/fileutil.h"
#include "core/profiler.h"
#include "drain/chunk_format.h"
#include "gen.h"

namespace perfbench {
namespace {

MergeShape small_shape() {
  MergeShape s;
  s.entries_per_shard = 5000;
  s.chunk_entries = 1024;
  s.nodes = 300;
  s.methods = 50;
  s.parts = 3;
  s.part_entries_per_shard = 1000;
  return s;
}

// Writes the merge inputs for `seed` under a fresh directory and returns the
// bytes of every file, in a fixed order.
std::vector<std::string> written_merge_inputs(u64 seed) {
  std::string dir = teeperf::make_temp_dir("perfbench_test_");
  MergeInputs in = make_merge_inputs(small_shape(), seed);
  std::vector<std::string> parts;
  for (usize p = 0; p < in.parts.size(); ++p) {
    parts.push_back(dir + "/part-" + std::to_string(p) + ".mprof");
  }
  EXPECT_TRUE(write_merge_inputs(in, dir + "/session", parts));
  std::vector<std::string> files;
  for (u32 seq = 0; seq < in.chunks.size(); ++seq) {
    files.push_back(*teeperf::read_file(teeperf::drain::chunk_path(dir + "/session", seq)));
  }
  files.push_back(*teeperf::read_file(dir + "/session.sym"));
  for (const std::string& p : parts) files.push_back(*teeperf::read_file(p));
  teeperf::remove_tree(dir);
  return files;
}

TEST(Generators, StringMatchSameSeedSameWords) {
  StringMatchApp a = make_string_match(10000, 2, 7);
  StringMatchApp b = make_string_match(10000, 2, 7);
  StringMatchApp c = make_string_match(10000, 2, 8);
  ASSERT_EQ(a.slices.size(), 2u);
  EXPECT_EQ(a.words, 10000u);
  EXPECT_EQ(a.slices[0].words.size() + a.slices[1].words.size(), 10000u);
  EXPECT_EQ(a.slices[0].words, b.slices[0].words);
  EXPECT_EQ(a.slices[1].words, b.slices[1].words);
  EXPECT_NE(a.slices[0].words, c.slices[0].words);
}

TEST(Generators, MergeInputsByteIdenticalForOneSeed) {
  std::vector<std::string> a = written_merge_inputs(11);
  std::vector<std::string> b = written_merge_inputs(11);
  ASSERT_GT(a.size(), 5u);
  EXPECT_EQ(a, b);
}

TEST(Generators, MergeInputsDifferAcrossSeeds) {
  std::vector<std::string> a = written_merge_inputs(11);
  std::vector<std::string> b = written_merge_inputs(12);
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());
  EXPECT_NE(a.front(), b.front());  // first chunk
  EXPECT_NE(a.back(), b.back());    // last part profile
}

TEST(Generators, MergeSessionIsDeepAndWide) {
  MergeShape shape;
  shape.entries_per_shard = 1000;
  shape.parts = 1;
  shape.part_entries_per_shard = 20000;
  MergeInputs in = make_merge_inputs(shape, 3);
  ASSERT_FALSE(in.parts.empty());
  usize deepest = 0;
  for (const auto& [path, ticks] : in.parts[0].stacks) {
    deepest = std::max<usize>(deepest, std::count(path.begin(), path.end(), ';') + 1);
  }
  EXPECT_GE(deepest, 20u);
  EXPECT_GE(in.parts[0].stacks.size(), 1000u);
}

TEST(MetricNames, OnlyLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("probe.recorded_sw_notelemetry_ns"));
  EXPECT_TRUE(valid_metric_name("drain.lag_entries_p50"));
  EXPECT_TRUE(valid_metric_name("9-lives"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(ResultJson, CarriesCountsAndFullDigits) {
  Result r;
  r.attempted = 1000;
  r.failed = 3;
  r.add("latency_ms", 1.2034567891234, "ms");
  std::string j = result_json(true, r);
  EXPECT_NE(j.find("\"attempted\": 1000"), std::string::npos);
  EXPECT_NE(j.find("\"failed\": 3"), std::string::npos);
  EXPECT_NE(j.find("1.2034567891234"), std::string::npos);
}

// A spill session whose drainer never runs: writers exhaust their wait
// budget and force-advance the drain cursor. The loss must reach
// dropped_ratio, not vanish.
TEST(DropAccounting, ForcedDropShowsInDroppedRatio) {
  u64 saved = teeperf::ProfileLog::spill_wait_spins();
  teeperf::ProfileLog::set_spill_wait_spins(16);
  teeperf::RecorderOptions ro;
  ro.max_entries = 1024;
  ro.shards = 1;
  ro.spill_drain = true;
  ro.telemetry = false;
  ro.publish_session = false;
  auto rec = teeperf::Recorder::create(ro);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->attach());
  u64 id = teeperf::SymbolRegistry::instance().intern("perfbench::test::scope");
  {
    teeperf::Scope outer(id);
    for (int i = 0; i < 4096; ++i) teeperf::Scope s(id);
  }
  rec->detach();
  teeperf::ProfileLog::set_spill_wait_spins(saved);
  teeperf::Recorder::Stats st = rec->stats();
  EXPECT_EQ(st.attempted, 2u * 4096 + 2);
  EXPECT_GT(st.dropped, 0u);
  double ratio = dropped_ratio(st.dropped, st.attempted);
  EXPECT_GT(ratio, 0.0);
  EXPECT_DOUBLE_EQ(ratio, static_cast<double>(st.dropped) / static_cast<double>(st.attempted));
  EXPECT_EQ(dropped_ratio(0, 100), 0.0);
}

}  // namespace
}  // namespace perfbench
