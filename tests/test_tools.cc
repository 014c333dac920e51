// Exercises the CLI binaries end to end by exec'ing them: argument
// validation, record→analyze round trips, every analyzer output mode, the
// selective filter and dynamic-activation wrapper flags. Binary locations
// come from TEEPERF_BIN_DIR (set by CMake).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/fileutil.h"
#include "common/stringutil.h"
#include "synthetic_session.h"

namespace teeperf {
namespace {

std::string bin_dir() {
  const char* d = std::getenv("TEEPERF_BIN_DIR");
  return d ? d : "build";
}

// Runs a command line, captures combined stdout+stderr into *output,
// returns the exit code (or -1 on spawn failure).
int run_cmd(const std::vector<std::string>& args, std::string* output) {
  std::string out_file = make_temp_dir("teeperf_cli_") + "/out";
  std::string cmd;
  for (const auto& a : args) {
    cmd += "'" + a + "' ";
  }
  cmd += "> " + out_file + " 2>&1";
  int status = std::system(cmd.c_str());
  if (auto text = read_file(out_file)) *output = *text;
  remove_tree(out_file.substr(0, out_file.rfind('/')));
  if (status < 0) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class ToolsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = make_temp_dir("teeperf_tools_");
    record_ = bin_dir() + "/tools/teeperf_record";
    analyze_ = bin_dir() + "/tools/teeperf_analyze";
    flamegraph_ = bin_dir() + "/tools/teeperf_flamegraph";
    stats_ = bin_dir() + "/tools/teeperf_stats";
    fuzz_ = bin_dir() + "/tools/teeperf_fuzz";
    app_ = bin_dir() + "/examples/instrumented_app";
  }
  void TearDown() override { remove_tree(dir_); }

  // Records one run of the instrumented app; returns the dump prefix.
  std::string record_run(const std::vector<std::string>& extra = {}) {
    std::string prefix = dir_ + "/run";
    std::vector<std::string> args{record_, "-o", prefix, "-n", "262144"};
    args.insert(args.end(), extra.begin(), extra.end());
    args.push_back("--");
    args.push_back(app_);
    args.push_back(dir_ + "/appout");
    std::string out;
    EXPECT_EQ(run_cmd(args, &out), 0) << out;
    return prefix;
  }

  // A synthetic spill session (synthetic_session.h) of `chunks` chunks of
  // 2 x 2048 entries, with a "<prefix>.sym" naming its 48 methods.
  std::string synthetic_session(const std::string& stem, u32 chunks) {
    std::string prefix = dir_ + "/" + stem;
    write_synthetic_session(prefix, chunks, 2048);
    write_synthetic_symbols(prefix);
    return prefix;
  }

  // A wrapped ring dump (synthetic_session.h) of `capacity` entries, with
  // the same "<prefix>.sym".
  std::string ring_dump(const std::string& stem, u64 capacity) {
    std::string prefix = dir_ + "/" + stem;
    write_ring_dump(prefix, capacity);
    write_synthetic_symbols(prefix);
    return prefix;
  }

  static void write_synthetic_symbols(const std::string& prefix) {
    std::string sym;
    for (u64 level = 0; level < 3; ++level) {
      for (u64 fn = 0; fn < 16; ++fn) {
        sym += str_format("%llu\tsynth::level%llu::fn%02llu\n",
                          static_cast<unsigned long long>(0x100 * (level + 1) + fn),
                          static_cast<unsigned long long>(level),
                          static_cast<unsigned long long>(fn));
      }
    }
    EXPECT_TRUE(write_file(prefix + ".sym", sym));
  }

  std::string dir_, record_, analyze_, flamegraph_, stats_, fuzz_, app_;
};

// The text from the first line that starts with `header` to the end.
std::string from_line(const std::string& out, const std::string& header) {
  usize at = out.rfind("\n" + header);
  return at == std::string::npos ? "" : out.substr(at + 1);
}

TEST_F(ToolsTest, RecordRejectsBadArgs) {
  std::string out;
  EXPECT_EQ(run_cmd({record_}, &out), 2);                       // no command
  EXPECT_EQ(run_cmd({record_, "--bogus", "--", "true"}, &out), 2);
  EXPECT_EQ(run_cmd({record_, "-c", "sundial", "--", "true"}, &out), 2);
}

TEST_F(ToolsTest, AnalyzeRejectsMissingPrefix) {
  std::string out;
  EXPECT_EQ(run_cmd({analyze_}, &out), 2);
  EXPECT_EQ(run_cmd({analyze_, dir_ + "/nonexistent"}, &out), 1);
}

TEST_F(ToolsTest, RecordAnalyzeAllOutputModes) {
  std::string prefix = record_run();
  ASSERT_TRUE(file_exists(prefix + ".log"));
  ASSERT_TRUE(file_exists(prefix + ".sym"));

  std::string out;
  ASSERT_EQ(run_cmd({analyze_, prefix, "--top", "10", "--callgraph",
                     "--threads", "--tree", "--gprof", "--hottest",
                     "--validate"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("fibonacci"), std::string::npos);
  EXPECT_NE(out.find("Flat profile"), std::string::npos);
  EXPECT_NE(out.find("hottest stack"), std::string::npos);
  EXPECT_NE(out.find("validation: clean"), std::string::npos);
  EXPECT_NE(out.find("<all threads>"), std::string::npos);

  // File-producing modes.
  ASSERT_EQ(run_cmd({analyze_, prefix, "--csv", dir_ + "/o.csv", "--folded",
                     dir_ + "/o.folded", "--svg", dir_ + "/o.svg",
                     "--timeline", dir_ + "/o.tl.csv", "--timeline-svg",
                     dir_ + "/o.tl.svg", "--chrome", dir_ + "/o.json"},
                    &out),
            0)
      << out;
  for (const char* f : {"/o.csv", "/o.folded", "/o.svg", "/o.tl.csv",
                        "/o.tl.svg", "/o.json"}) {
    auto content = read_file(dir_ + f);
    ASSERT_TRUE(content.has_value()) << f;
    EXPECT_FALSE(content->empty()) << f;
  }
  EXPECT_NE(read_file(dir_ + "/o.json")->find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ToolsTest, AnalyzeMethodQueryAndMerge) {
  std::string p1 = record_run();
  // Second run under a different prefix for the merge.
  std::string p2 = dir_ + "/run2";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", p2, "--", app_, dir_ + "/appout2"}, &out), 0);

  ASSERT_EQ(run_cmd({analyze_, p1, "--method", "fibonacci"}, &out), 0) << out;
  EXPECT_NE(out.find("invocations matching"), std::string::npos);
  EXPECT_NE(out.find("by caller:"), std::string::npos);

  ASSERT_EQ(run_cmd({analyze_, p1, "--merge", p2}, &out), 0) << out;
  EXPECT_NE(out.find("merged 2 dumps"), std::string::npos);
}

TEST_F(ToolsTest, RecordInactiveStaysEmpty) {
  std::string prefix = record_run({"--inactive"});
  std::string out;
  ASSERT_EQ(run_cmd({analyze_, prefix}, &out), 0);
  EXPECT_NE(out.find("entries=0"), std::string::npos);
}

TEST_F(ToolsTest, RecordCallsOnlyHalvesEvents) {
  std::string full = record_run();
  std::string calls_prefix = dir_ + "/calls";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", calls_prefix, "--calls-only", "--", app_,
                     dir_ + "/x"},
                    &out),
            0);
  auto full_log = read_file(full + ".log");
  auto calls_log = read_file(calls_prefix + ".log");
  ASSERT_TRUE(full_log && calls_log);
  // Same workload, returns dropped: roughly half the entries.
  EXPECT_LT(calls_log->size(), full_log->size() * 3 / 4);
}

TEST_F(ToolsTest, FlamegraphToolRoundTrip) {
  std::string prefix = record_run();
  std::string out;
  ASSERT_EQ(run_cmd({analyze_, prefix, "--folded", dir_ + "/f.folded"}, &out), 0);
  ASSERT_EQ(run_cmd({flamegraph_, dir_ + "/f.folded", dir_ + "/f.svg",
                     "--title", "cli test", "--width", "900"},
                    &out),
            0)
      << out;
  auto svg = read_file(dir_ + "/f.svg");
  ASSERT_TRUE(svg.has_value());
  EXPECT_NE(svg->find("cli test"), std::string::npos);
  EXPECT_NE(svg->find("width=\"900\""), std::string::npos);
}

TEST_F(ToolsTest, FlamegraphToolRejectsGarbage) {
  write_file(dir_ + "/garbage", "not folded stacks at all");
  std::string out;
  EXPECT_EQ(run_cmd({flamegraph_, dir_ + "/garbage", dir_ + "/out.svg"}, &out), 1);
  EXPECT_EQ(run_cmd({flamegraph_, dir_ + "/missing", dir_ + "/out.svg"}, &out), 1);
}

// --- negative paths (ISSUE: every tool must fail loudly, never crash) -----

TEST_F(ToolsTest, AnalyzeRejectsTruncatedAndCorruptDumps) {
  std::string prefix = record_run();
  auto log = read_file(prefix + ".log");
  ASSERT_TRUE(log.has_value());
  ASSERT_GT(log->size(), 256u);

  // Sub-header truncation: not even a LogHeader left — hard failure with a
  // diagnostic naming the file.
  std::string stub = prefix + "_stub";
  ASSERT_TRUE(write_file(stub + ".log", log->substr(0, 64)));
  std::string out;
  EXPECT_EQ(run_cmd({analyze_, stub}, &out), 1);
  EXPECT_NE(out.find("cannot load"), std::string::npos) << out;

  // Truncation mid-entries: the valid prefix still analyzes (torn-dump
  // recovery), exit 0.
  std::string torn = prefix + "_torn";
  ASSERT_TRUE(write_file(torn + ".log", log->substr(0, log->size() / 2)));
  EXPECT_EQ(run_cmd({analyze_, torn}, &out), 0) << out;

  // Corrupt magic: rejected outright.
  std::string bad = *log;
  bad[0] ^= 0xff;
  std::string corrupt = prefix + "_magic";
  ASSERT_TRUE(write_file(corrupt + ".log", bad));
  EXPECT_EQ(run_cmd({analyze_, corrupt}, &out), 1);
  EXPECT_NE(out.find("cannot load"), std::string::npos) << out;
}

TEST_F(ToolsTest, RecordRejectsBadFaultSpec) {
  std::string out;
  EXPECT_EQ(run_cmd({record_, "--faults", "dump.torn:nth=0", "--", "true"},
                    &out),
            2);
  EXPECT_NE(out.find("bad --faults"), std::string::npos) << out;
  EXPECT_EQ(run_cmd({record_, "--faults", "p:bogus=1", "--", "true"}, &out), 2);
}

TEST_F(ToolsTest, RecordWithAppendDieFaultStillWritesLoadableDump) {
  // The armed child SIGKILLs itself mid-append; the wrapper must still
  // persist the log, and the analyzer must recover the valid prefix.
  std::string prefix = dir_ + "/faulted";
  std::string out;
  EXPECT_EQ(run_cmd({record_, "-o", prefix, "-c", "steady_clock", "--faults",
                     "log.append.die:nth=40", "--fault-seed", "2", "--", app_,
                     dir_ + "/fx"},
                    &out),
            1)
      << out;
  ASSERT_TRUE(file_exists(prefix + ".log"));
  EXPECT_EQ(run_cmd({analyze_, prefix}, &out), 0) << out;
}

TEST_F(ToolsTest, RecordDumpFaultsFireInTheWrapper) {
  // The wrapper dumps through Recorder::dump, so its dump fault points fire
  // exactly as in an in-process session.
  std::string failed = dir_ + "/failed";
  std::string out;
  EXPECT_NE(run_cmd({record_, "-o", failed, "-n", "262144", "--faults",
                     "dump.fail:nth=1", "--", app_, dir_ + "/fa"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("writing " + failed + ".log failed"), std::string::npos)
      << out;

  std::string whole = record_run();
  std::string torn = dir_ + "/torn";
  EXPECT_EQ(run_cmd({record_, "-o", torn, "-n", "262144", "--faults",
                     "dump.torn:nth=1", "--", app_, dir_ + "/ft"},
                    &out),
            0)
      << out;
  auto whole_log = read_file(whole + ".log");
  auto torn_log = read_file(torn + ".log");
  ASSERT_TRUE(whole_log && torn_log);
  EXPECT_LT(torn_log->size(), whole_log->size());
}

TEST_F(ToolsTest, RecordRunsEveryWrapperThread) {
  // Software counter, watchdog, toggler, freezer and spill drainer all run
  // in one wrapper session (the case the TSan job needs covered).
  std::string prefix = dir_ + "/threads";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", prefix, "-n", "4096", "-c", "software",
                     "--spill", dir_, "--spill-chunk-entries", "512",
                     "--start-after-ms", "0", "--stop-after-ms", "5000",
                     "--freeze-counter-after-ms", "20", "--hold-ms", "100",
                     "--", app_, dir_ + "/tx"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("spilled"), std::string::npos) << out;
  auto events = read_file(prefix + ".events.jsonl");
  ASSERT_TRUE(events.has_value());
  EXPECT_NE(events->find("\"event\":\"activate\""), std::string::npos);
  EXPECT_NE(events->find("\"event\":\"detach\""), std::string::npos);
  EXPECT_EQ(run_cmd({analyze_, prefix, "--validate"}, &out), 0) << out;
}

TEST_F(ToolsTest, StatsRejectsBadArgsAndMissingSession) {
  std::string out;
  EXPECT_EQ(run_cmd({stats_}, &out), 2);
  EXPECT_EQ(run_cmd({stats_, "12345", "--bogus"}, &out), 2);
  EXPECT_EQ(run_cmd({stats_, "12345", "--arm", "=3"}, &out), 2);
  EXPECT_NE(out.find("bad --arm"), std::string::npos) << out;
  // Valid args, but nobody is publishing telemetry under that name.
  EXPECT_EQ(run_cmd({stats_, "/teeperf.nosuch.session"}, &out), 1);
  EXPECT_NE(out.find("no telemetry region"), std::string::npos) << out;
}

TEST_F(ToolsTest, FuzzRejectsBadArgsAndMissingCorpus) {
  std::string out;
  EXPECT_EQ(run_cmd({fuzz_, "--bogus"}, &out), 2);
  EXPECT_EQ(run_cmd({fuzz_, "--corpus"}, &out), 2);  // flag without value
  EXPECT_EQ(run_cmd({fuzz_, "--corpus", dir_ + "/empty_corpus", "--iters", "1"},
                    &out),
            1);  // no corpus files to mutate
}

TEST_F(ToolsTest, DiffBetweenTwoRuns) {
  std::string p1 = record_run();
  std::string p2 = dir_ + "/second";
  std::string out;
  ASSERT_EQ(run_cmd({record_, "-o", p2, "--", app_, dir_ + "/y"}, &out), 0);
  ASSERT_EQ(run_cmd({analyze_, p1, "--diff", p2}, &out), 0) << out;
  EXPECT_NE(out.find("delta(ms)"), std::string::npos);
}

// --- streamed aggregate commands --------------------------------------------
// Every aggregate command streams the session through the chunk reader
// thread and the shard worker pool; CI runs these cases under TSan too.

TEST_F(ToolsTest, StreamedTopMatchesMprofInfo) {
  std::string p = synthetic_session("p", 4);
  std::string mprof = dir_ + "/p.mprof";
  std::string top, emit, info;
  ASSERT_EQ(run_cmd({analyze_, p, "--top", "10"}, &top), 0) << top;
  ASSERT_EQ(run_cmd({analyze_, "--mprof", p, mprof}, &emit), 0) << emit;
  ASSERT_EQ(run_cmd({analyze_, "--mprof-info", mprof, "--top", "10"}, &info), 0)
      << info;
  // One summary line, one method table, byte for byte.
  std::string summary = emit.substr(0, emit.find('\n') + 1);
  EXPECT_EQ(top.substr(0, summary.size()), summary) << top;
  EXPECT_EQ(info.substr(0, summary.size()), summary) << info;
  std::string table = from_line(top, "method ");
  ASSERT_NE(table.find("synth::level"), std::string::npos) << top;
  EXPECT_NE(table.find("... (38 more methods)"), std::string::npos) << table;
  EXPECT_EQ(table, from_line(info, "method "));
}

TEST_F(ToolsTest, StreamedMergeMatchesMprofMerge) {
  std::string p = synthetic_session("p", 4);
  std::string p2 = synthetic_session("p2", 2);
  std::string a = dir_ + "/a.mprof", b = dir_ + "/b.mprof", ab = dir_ + "/ab.mprof";
  std::string out, info;
  ASSERT_EQ(run_cmd({analyze_, "--mprof", p, a}, &out), 0) << out;
  ASSERT_EQ(run_cmd({analyze_, "--mprof", p2, b}, &out), 0) << out;
  ASSERT_EQ(run_cmd({analyze_, "--mprof-merge", ab, a, b}, &out), 0) << out;
  ASSERT_EQ(run_cmd({analyze_, "--mprof-info", ab}, &info), 0) << info;
  std::string want = "merged 2 dumps: " + info;

  // The second input as a session prefix or as its .mprof: same fold.
  for (const std::string& input : {p2, b}) {
    SCOPED_TRACE(input);
    ASSERT_EQ(run_cmd({analyze_, p, "--merge", input}, &out), 0) << out;
    EXPECT_EQ(from_line(out, "merged "), want);
  }
  // An input that does not load is reported and skipped.
  ASSERT_EQ(run_cmd({analyze_, p, "--merge", dir_ + "/missing", b}, &out), 0)
      << out;
  EXPECT_NE(out.find("skipping " + dir_ + "/missing"), std::string::npos) << out;
  EXPECT_EQ(from_line(out, "merged "), want);
}

TEST_F(ToolsTest, StreamedDiffAcceptsMprof) {
  std::string p = synthetic_session("p", 4);
  std::string p2 = synthetic_session("p2", 2);
  std::string b = dir_ + "/b.mprof";
  std::string by_prefix, by_mprof, out;
  ASSERT_EQ(run_cmd({analyze_, "--mprof", p2, b}, &out), 0) << out;
  ASSERT_EQ(run_cmd({analyze_, p, "--diff", p2}, &by_prefix), 0) << by_prefix;
  ASSERT_EQ(run_cmd({analyze_, p, "--diff", b}, &by_mprof), 0) << by_mprof;
  std::string table = from_line(by_prefix, "method ");
  ASSERT_NE(table.find("delta(ms)"), std::string::npos) << by_prefix;
  ASSERT_NE(table.find("synth::level"), std::string::npos) << by_prefix;
  EXPECT_EQ(table, from_line(by_mprof, "method "));
  EXPECT_NE(run_cmd({analyze_, p, "--diff", dir_ + "/missing.mprof"}, &out), 0);
}

// Peak RSS, in KiB, of one run of `args` with its output discarded:
// wait4's ru_maxrss of a forked child. The count includes what the child
// held of this process before exec, so keep this process small: write big
// inputs from another child (in_child).
long peak_rss_kib(const std::vector<std::string>& args, int* exit_code) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  // In an ASan build a freed block waits in the allocator's quarantine
  // (256 MiB by default) and stays resident, so the peak would count what
  // the child freed, not what it holds. No effect in other builds.
  const char* asan = std::getenv("ASAN_OPTIONS");
  std::string asan_options = std::string(asan ? asan : "") + ":quarantine_size_mb=0";
  pid_t pid = fork();
  if (pid == 0) {
    int null = open("/dev/null", O_WRONLY);
    dup2(null, 1);
    dup2(null, 2);
    setenv("ASAN_OPTIONS", asan_options.c_str(), 1);
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  if (pid < 0 || wait4(pid, &status, 0, &ru) != pid) return -1;
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return ru.ru_maxrss;
}

// Runs fn in a forked child and returns whether it exited 0 with no
// test failure; whatever it allocated leaves with it.
template <typename F>
bool in_child(F fn) {
  pid_t pid = fork();
  if (pid == 0) {
    fn();
    _exit(::testing::Test::HasFailure() ? 1 : 0);
  }
  int status = 0;
  return pid > 0 && waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
}

// The streamed aggregate commands; "@" stands for the session prefix.
const std::vector<std::string> kAggregateCommands = {"--top", "10", "--tree",
                                                     "--svg", "@.svg"};

// Peak RSS, in KiB, of `command` on the session at each of `prefixes`; 0
// for a prefix whose run failed.
std::vector<long> aggregate_peaks_kib(
    const std::string& analyze, const std::vector<std::string>& prefixes,
    const std::vector<std::string>& command = kAggregateCommands) {
  std::vector<long> peaks;
  for (const std::string& p : prefixes) {
    std::vector<std::string> args{analyze, p};
    for (const std::string& a : command) {
      args.push_back(a[0] == '@' ? p + a.substr(1) : a);
    }
    int code = -1;
    long peak = peak_rss_kib(args, &code);
    EXPECT_EQ(code, 0) << p;
    EXPECT_GT(peak, 0) << p;
    peaks.push_back(code == 0 ? peak : 0);
  }
  return peaks;
}

// The margin a streamed command's peak RSS may grow by when its input
// grows: the sessions below hold one tree of 48 distinct paths at any
// size.
constexpr long kFlatRssMarginKib = 4 << 10;

TEST_F(ToolsTest, StreamedAggregatesPeakRssFlat) {
  // 8x the entries (65,536 vs 524,288; 1 MB vs 8 MB of chunks). Holding
  // every Invocation costs ~20 MB more at the larger size; the streamed
  // commands hold two chunk files and one tree of 48 distinct paths, and
  // the row commands the open frames, one round's rows and what their
  // output keeps (a 1 MiB write buffer, 25 rows and the callers).
  std::string small = dir_ + "/small", large = dir_ + "/large";
  ASSERT_TRUE(in_child([&] {
    synthetic_session("small", 16);
    synthetic_session("large", 128);
  }));
  for (const std::vector<std::string>& command :
       std::vector<std::vector<std::string>>{kAggregateCommands,
                                             {"--chrome", "@.json"},
                                             {"--csv", "@.csv"},
                                             {"--method", "synth::level2"}}) {
    SCOPED_TRACE(command[0]);
    std::vector<long> peak = aggregate_peaks_kib(analyze_, {small, large}, command);
    EXPECT_LE(peak[1], peak[0] + kFlatRssMarginKib)
        << "peak RSS " << peak[0] << " KiB at 65,536 entries, " << peak[1]
        << " KiB at 524,288";
    std::remove((large + ".json").c_str());
    std::remove((large + ".csv").c_str());
  }
}

TEST_F(ToolsTest, PlainDumpPeakRssFlat) {
  // 16x the entries (65,536 vs 1,048,576; 2 MiB vs 32 MiB of dump). The
  // dump is read in fixed blocks, so reading it whole would cost ~30 MiB
  // more at the larger size.
  std::string small = dir_ + "/ring_small", large = dir_ + "/ring_large";
  ASSERT_TRUE(in_child([&] {
    ring_dump("ring_small", u64{1} << 16);
    ring_dump("ring_large", u64{1} << 20);
  }));
  ASSERT_FALSE(file_exists(drain::chunk_path(large, 0)));  // not a spill session
  std::vector<long> peak = aggregate_peaks_kib(analyze_, {small, large});
  EXPECT_LE(peak[1], peak[0] + kFlatRssMarginKib)
      << "peak RSS " << peak[0] << " KiB at 65,536 entries, " << peak[1]
      << " KiB at 1,048,576";
}

}  // namespace
}  // namespace teeperf
