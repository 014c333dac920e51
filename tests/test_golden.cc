// Golden-file regression tests for the analyzer (TESTING.md "Golden
// files"): every seed_*.log in tests/corpus has a checked-in reference
// rendering — folded stacks, method-stat JSON and the text reports of
// teeperf_analyze's aggregate commands — and analysis output must stay
// bit-identical to it. The flame graph and timeline SVGs are pinned the
// same way: every corpus .mprof (calibrated and in ticks), one seeded
// deep and wide profile, and one timeline. Any intentional analyzer change regenerates the
// references with TEEPERF_UPDATE_GOLDEN=1 and reviews the diff.
//
// Plus the shard-layout differential: the same scripted workload recorded
// through per-event appends on one shard (the paper's single shared tail)
// and through per-thread batches into four shards must produce identical
// method stats — the shard layout is a performance change, never a
// semantic one.
#include <dirent.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "core/log_format.h"
#include "flamegraph/flamegraph.h"
#include "row_rollup.h"
#include "written_dump.h"

namespace teeperf {
namespace {

std::string corpus_dir() {
  const char* dir = std::getenv("TEEPERF_CORPUS_DIR");
  return dir && *dir ? dir : "tests/corpus";
}

bool update_mode() {
  const char* u = std::getenv("TEEPERF_UPDATE_GOLDEN");
  return u && *u && std::string(u) != "0";
}

// The corpus files named "<prefix>*<suffix>", without the suffix, sorted.
std::vector<std::string> corpus_files(const std::string& prefix,
                                      const std::string& suffix) {
  std::vector<std::string> names;
  DIR* d = opendir(corpus_dir().c_str());
  if (!d) return names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (starts_with(name, prefix) && name.size() > suffix.size() &&
        ends_with(name, suffix)) {
      names.push_back(name.substr(0, name.size() - suffix.size()));
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> seed_logs() { return corpus_files("seed_", ".log"); }

// Canonical folded-stacks rendering: already sorted by path.
std::string render_folded(const analyzer::MergeableProfile& m) { return m.folded(); }

// Method stats as JSON lines, sorted by (smallest) method id.
std::string render_stats_json(const analyzer::MergeableProfile& m) {
  std::vector<std::pair<const std::string*, const analyzer::MprofMethod*>> stats;
  for (const auto& [name, mm] : m.methods) stats.push_back({&name, &mm});
  std::sort(stats.begin(), stats.end(), [](const auto& a, const auto& b) {
    return a.second->id < b.second->id;
  });
  std::string out = "[\n";
  for (usize i = 0; i < stats.size(); ++i) {
    const analyzer::MprofMethod& s = *stats[i].second;
    out += str_format(
        "  {\"method\": \"%s\", \"count\": %llu, \"inclusive\": %llu, "
        "\"exclusive\": %llu, \"min\": %llu, \"max\": %llu}%s\n",
        stats[i].first->c_str(), static_cast<unsigned long long>(s.count),
        static_cast<unsigned long long>(s.inclusive_total),
        static_cast<unsigned long long>(s.exclusive_total),
        static_cast<unsigned long long>(s.min_inclusive),
        static_cast<unsigned long long>(s.max_inclusive),
        i + 1 < stats.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

void check_golden(const std::string& golden_path, const std::string& actual) {
  if (update_mode()) {
    ASSERT_TRUE(write_file(golden_path, actual)) << golden_path;
    return;
  }
  auto expected = read_file(golden_path);
  ASSERT_TRUE(expected) << "missing golden " << golden_path
                        << " — regenerate with TEEPERF_UPDATE_GOLDEN=1";
  EXPECT_EQ(*expected, actual)
      << "analyzer output drifted from " << golden_path
      << " — if intentional, regenerate with TEEPERF_UPDATE_GOLDEN=1";
}

TEST(GoldenCorpus, HasSeeds) {
  // The suite below silently passes on an empty list; make that loud.
  EXPECT_GE(seed_logs().size(), 8u) << "corpus dir: " << corpus_dir();
}

TEST(GoldenCorpus, FoldedStacksAndMethodStatsBitIdentical) {
  for (const std::string& name : seed_logs()) {
    SCOPED_TRACE(name);
    auto m = analyzer::StreamAnalyzer::analyze(corpus_dir() + "/" + name);
    ASSERT_TRUE(m) << "loader rejected a trusted seed";
    std::string golden_base = corpus_dir() + "/golden/" + name;
    check_golden(golden_base + ".folded", render_folded(*m));
    check_golden(golden_base + ".stats.json", render_stats_json(*m));
  }
}

// The text each aggregate command of `teeperf_analyze <prefix>` prints
// after the session summary, with the command's default arguments (`--top`
// at its default 30 rows), keyed by the golden file's suffix.
std::vector<std::pair<std::string, std::string>> text_reports(
    const analyzer::SessionTree& tree) {
  analyzer::MergeableProfile m = analyzer::MergeableProfile::from_tree(tree);
  return {
      {"top", analyzer::method_report(m, 30)},
      {"callgraph", analyzer::call_graph_report(m)},
      {"tree", analyzer::call_tree_report(tree)},
      {"bottomup", analyzer::bottom_up_report(tree)},
      {"gprof", analyzer::gprof_flat_report(m)},
      {"hottest", analyzer::hottest_report(m)},
  };
}

TEST(GoldenCorpus, TextReportsBitIdentical) {
  for (const std::string& name : seed_logs()) {
    SCOPED_TRACE(name);
    // The streamed session, as teeperf_analyze reads it.
    std::string err;
    auto tree = analyzer::StreamAnalyzer::analyze_tree(corpus_dir() + "/" + name, &err);
    ASSERT_TRUE(tree) << "streaming analyzer rejected a trusted seed: " << err;
    auto streamed = text_reports(*tree);
    for (const auto& [command, text] : streamed) {
      SCOPED_TRACE(command);
      check_golden(corpus_dir() + "/golden/" + name + "." + command + ".txt",
                   text);
    }
    // The dump's rows, collected in memory and rolled up, render the same
    // text.
    auto raw = read_file(corpus_dir() + "/" + name + ".log");
    ASSERT_TRUE(raw);
    auto table = table_of_dump(*raw);
    ASSERT_TRUE(table) << "loader rejected a trusted seed";
    EXPECT_EQ(text_reports(rollup_tree(*table)), streamed);
  }
}

// ------------------------------------------------------------- SVG bytes

TEST(GoldenSvg, CorpusProfilesBitIdentical) {
  std::vector<std::string> names = corpus_files("", ".mprof");
  EXPECT_GE(names.size(), 5u) << "corpus dir: " << corpus_dir();
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::string err;
    auto m = analyzer::MergeableProfile::load(corpus_dir() + "/" + name + ".mprof",
                                              &err);
    ASSERT_TRUE(m) << err;
    flamegraph::SvgOptions opt;
    opt.title = name;
    std::string base = corpus_dir() + "/golden/" + name;
    // Calibrated from the aggregate's tick rate, and ticks only.
    check_golden(base + ".svg", flamegraph::render_profile_svg(*m, opt));
    check_golden(base + ".ticks.svg",
                 flamegraph::render_svg({m->stacks.begin(), m->stacks.end()}, opt));
  }
}

// A seeded deep and wide profile: 2,000 paths up to 17 frames deep,
// names with every XML-special character, drawn narrow enough that most
// labels are ellipsized and many frames fall under the pixel floor.
std::map<std::string, u64> deep_wide_stacks() {
  const char* names[] = {
      "main", "run<T&>", "a&b", "x<y>", "say\"hi\"", "operator<<",
      "std::vector<std::pair<int,double>>::emplace_back", "io", "read",
      "write", "compute_kernel_with_a_long_name", "f", "g", "h", "<lambda>",
      "&&", "parse", "lex", "emit", "flush"};
  constexpr u64 kNames = sizeof(names) / sizeof(names[0]);
  Xorshift64 rng(2028);
  std::map<std::string, u64> stacks;
  while (stacks.size() < 2000) {
    std::string path = "main";
    u64 depth = 1 + rng.next_below(16);
    for (u64 d = 0; d < depth; ++d) {
      path += ';';
      // Narrow fan-out near the root so paths share long prefixes.
      path += names[rng.next_below(d < 3 ? 3 : kNames)];
    }
    // Heavy-tailed values: a few paths carry most of the time.
    stacks[path] += 1 + (rng.next_below(16) == 0 ? rng.next_below(2'000'000)
                                                  : rng.next_below(5'000));
  }
  return stacks;
}

TEST(GoldenSvg, DeepWideProfileBitIdenticalInAnyOrder) {
  analyzer::MergeableProfile m;
  m.stacks = deep_wide_stacks();
  m.ns_per_tick = 0.37;
  flamegraph::SvgOptions opt;
  opt.title = "deep & <wide>";
  opt.width = 480;
  std::string svg = flamegraph::render_profile_svg(m, opt);
  check_golden(corpus_dir() + "/golden/deep_wide.svg", svg);

  opt.ns_per_tick = m.ns_per_tick;
  flamegraph::FoldedStacks sorted(m.stacks.begin(), m.stacks.end());
  EXPECT_EQ(flamegraph::render_svg(sorted, opt), svg);
  flamegraph::FoldedStacks shuffled = sorted;
  Xorshift64 rng(7);
  for (usize i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  EXPECT_EQ(flamegraph::render_svg(shuffled, opt), svg);

  // Wide, with only frames of 20 px and up: nearly every frame is labelled.
  opt.width = 4000;
  opt.min_width_px = 20;
  svg = flamegraph::render_svg(shuffled, opt);
  check_golden(corpus_dir() + "/golden/deep_wide.labels.svg", svg);
  EXPECT_EQ(flamegraph::render_svg(sorted, opt), svg);
}

TEST(GoldenSvg, TimelineBitIdentical) {
  auto table = analyzer::InvocationTable::load(corpus_dir() + "/seed_threads");
  ASSERT_TRUE(table);
  ASSERT_GT(table->count(), 0u);
  flamegraph::TimelineOptions opt;
  opt.title = "seed_threads";
  check_golden(corpus_dir() + "/golden/seed_threads.timeline.svg",
               flamegraph::render_timeline_svg(*table, opt));
}

// ----------------------------------------------- shard-layout differential

// A deterministic multi-thread workload scripted as (kind, addr, tid,
// counter) tuples: nested calls, a stray return, interleaved threads.
struct Step {
  EventKind kind;
  u64 addr;
  u64 tid;
  u64 counter;
};

std::vector<Step> scripted_workload() {
  std::vector<Step> steps;
  u64 c = 1000;
  for (u64 rep = 0; rep < 50; ++rep) {
    for (u64 tid = 0; tid < 4; ++tid) {
      steps.push_back({EventKind::kCall, 0x1000 + tid, tid, c += 3});
      steps.push_back({EventKind::kCall, 0x2000 + tid, tid, c += 3});
      steps.push_back({EventKind::kReturn, 0x2000 + tid, tid, c += 3});
    }
    for (u64 tid = 0; tid < 4; ++tid) {
      steps.push_back({EventKind::kCall, 0x3000, tid, c += 3});
      steps.push_back({EventKind::kReturn, 0x3000, tid, c += 3});
      steps.push_back({EventKind::kReturn, 0x1000 + tid, tid, c += 3});
    }
  }
  return steps;
}

// The workload through per-thread batches into a 4-shard log, with
// deliberately unflushed remainders published at the end (as the runtime
// does at thread exit / detach).
void record_batched(ProfileLog& log, const std::vector<Step>& steps) {
  LogBatch batches[4];
  for (const Step& s : steps) {
    ASSERT_TRUE(batches[s.tid].record(log, s.kind, s.addr, s.tid, s.counter));
  }
  for (LogBatch& b : batches) ASSERT_TRUE(b.flush(log));
}

constexpr u64 kFlags = log_flags::kActive | log_flags::kMultithread;

TEST(ShardLayoutDifferential, SameWorkloadIdenticalMethodStats) {
  std::vector<Step> steps = scripted_workload();

  // One shard: every step through a per-event append on the shared tail.
  std::vector<u8> one_buf(ProfileLog::bytes_for(4096, 1));
  ProfileLog one;
  ASSERT_TRUE(one.init(one_buf.data(), one_buf.size(), 1, kFlags, 1));
  for (const Step& s : steps) {
    ASSERT_TRUE(one.append(s.kind, s.addr, s.tid, s.counter));
  }

  std::vector<u8> four_buf(ProfileLog::bytes_for(4096, 4));
  ProfileLog four;
  ASSERT_TRUE(four.init(four_buf.data(), four_buf.size(), 1, kFlags, 4));
  record_batched(four, steps);

  ASSERT_EQ(one.size(), four.size());
  EXPECT_EQ(one.attempted(), four.attempted());
  EXPECT_EQ(one.dropped(), four.dropped());
  auto p1 = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(one, {}, 1.0));
  auto p4 = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(four, {}, 1.0));
  EXPECT_EQ(p1.stats.thread_count, p4.stats.thread_count);
  EXPECT_EQ(render_stats_json(p1), render_stats_json(p4));
  EXPECT_EQ(render_folded(p1), render_folded(p4));
}

TEST(ShardLayoutDifferential, DumpRoundTripIdenticalMethodStats) {
  // The serialized compact form must analyze identically to the live log.
  std::vector<u8> buf(ProfileLog::bytes_for(4096, 4));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, kFlags, 4));
  record_batched(log, scripted_workload());

  auto live = analyzer::MergeableProfile::from_tree(
      analyzer::StreamAnalyzer::analyze_log(log, {}, 1.0));
  auto loaded = table_of_dump(written_dump(log));
  ASSERT_TRUE(loaded);
  EXPECT_EQ(render_stats_json(live), render_stats_json(rollup(*loaded)));
  EXPECT_EQ(render_folded(live), render_folded(rollup(*loaded)));
}

}  // namespace
}  // namespace teeperf
