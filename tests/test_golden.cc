// Golden-file regression tests for the analyzer (TESTING.md "Golden
// files"): every seed_*.log in tests/corpus has a checked-in reference
// rendering — folded stacks, method-stat JSON and the text reports of
// teeperf_analyze's aggregate commands — and analysis output must stay
// bit-identical to it. Any intentional analyzer change regenerates the
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
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/profile.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/log_format.h"

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

std::vector<std::string> seed_logs() {
  std::vector<std::string> names;
  DIR* d = opendir(corpus_dir().c_str());
  if (!d) return names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (starts_with(name, "seed_") && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".log") == 0) {
      names.push_back(name.substr(0, name.size() - 4));
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

// Canonical folded-stacks rendering: already sorted by path.
std::string render_folded(const analyzer::Profile& p) {
  return analyzer::MergeableProfile::from_profile(p).folded();
}

// Method stats as JSON lines, sorted by (smallest) method id.
std::string render_stats_json(const analyzer::Profile& p) {
  analyzer::MergeableProfile m = analyzer::MergeableProfile::from_profile(p);
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
    auto raw = read_file(corpus_dir() + "/" + name + ".log");
    ASSERT_TRUE(raw);
    auto profile = analyzer::Profile::load_bytes(*raw);
    ASSERT_TRUE(profile) << "loader rejected a trusted seed";
    std::string golden_base = corpus_dir() + "/golden/" + name;
    check_golden(golden_base + ".folded", render_folded(*profile));
    check_golden(golden_base + ".stats.json", render_stats_json(*profile));
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
    // An in-memory Profile's path tree renders the same text.
    auto raw = read_file(corpus_dir() + "/" + name + ".log");
    ASSERT_TRUE(raw);
    auto profile = analyzer::Profile::load_bytes(*raw);
    ASSERT_TRUE(profile) << "loader rejected a trusted seed";
    EXPECT_EQ(text_reports(profile->path_tree()), streamed);
  }
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
  auto p1 = analyzer::Profile::from_log(one, {}, 1.0);
  auto p4 = analyzer::Profile::from_log(four, {}, 1.0);
  EXPECT_EQ(p1.thread_count(), p4.thread_count());
  EXPECT_EQ(render_stats_json(p1), render_stats_json(p4));
  EXPECT_EQ(render_folded(p1), render_folded(p4));
}

TEST(ShardLayoutDifferential, DumpRoundTripIdenticalMethodStats) {
  // The serialized compact form must analyze identically to the live log.
  std::vector<u8> buf(ProfileLog::bytes_for(4096, 4));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, kFlags, 4));
  record_batched(log, scripted_workload());

  auto live = analyzer::Profile::from_log(log, {}, 1.0);
  auto loaded = analyzer::Profile::load_bytes(log.serialize_compact());
  ASSERT_TRUE(loaded);
  EXPECT_EQ(render_stats_json(live), render_stats_json(*loaded));
  EXPECT_EQ(render_folded(live), render_folded(*loaded));
}

}  // namespace
}  // namespace teeperf
