// perfbench: the repository benchmark binary.
//
//   perfbench --workload <probe_dense|spill_stream|analyze_merge>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics (spans
// around every layer call, plus the probe ledger) and writes the spans to
// .bench_out/. A failed output check prints "correct": false and exits 1.
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/fileutil.h"
#include "common/stringutil.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <probe_dense|spill_stream|analyze_merge> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

// Removes scratch directories left by runs that were killed: each is named
// "<workload>-<pid>", and its process no longer exists.
void remove_stale_scratch() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(".bench_tmp", ec)) {
    std::string name = entry.path().filename().string();
    usize dash = name.rfind('-');
    long pid = dash == std::string::npos ? 0 : std::atol(name.c_str() + dash + 1);
    if (pid > 0 && kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
      teeperf::remove_tree(entry.path().string());
    }
  }
}

std::string self_exe() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  return n > 0 ? std::string(buf, static_cast<usize>(n)) : std::string();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--rss-child") == 0) {
    return rss_child_main(argv[2]);
  }
  Options opt;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !have_seed || opt.seconds <= 0) return usage();
  Result (*workload)(const Options&, Tracer&) = nullptr;
  if (opt.workload == "probe_dense") workload = run_probe_dense;
  if (opt.workload == "spill_stream") workload = run_spill_stream;
  if (opt.workload == "analyze_merge") workload = run_analyze_merge;
  if (!workload) return usage();

  // All scratch files live under the working directory and go at exit.
  remove_stale_scratch();
  opt.self_exe = self_exe();
  opt.work_dir = teeperf::str_format(".bench_tmp/%s-%d", opt.workload.c_str(),
                                     static_cast<int>(getpid()));
  teeperf::remove_tree(opt.work_dir);
  if (opt.self_exe.empty() || !teeperf::make_dirs(opt.work_dir)) {
    std::fprintf(stderr, "perfbench: cannot set up %s\n", opt.work_dir.c_str());
    return 1;
  }

  Tracer tr(opt.trace);
  Result r;
  bool correct = true;
  try {
    if (opt.trace) run_probe_ledger(tr, &r);
    Result w = workload(opt, tr);
    r.attempted += w.attempted;
    r.failed += w.failed;
    r.metrics.insert(r.metrics.end(), w.metrics.begin(), w.metrics.end());
    for (const Metric& m : r.metrics) {
      check(valid_metric_name(m.name), "invalid metric name " + m.name);
    }
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.what());
    correct = false;
    r.metrics.clear();
  }
  teeperf::remove_tree(opt.work_dir);
  rmdir(".bench_tmp");  // fails, harmlessly, while other runs use it
  if (opt.trace) {
    teeperf::make_dirs(".bench_out");
    teeperf::write_file(teeperf::str_format(".bench_out/spans-%s-%llu.json",
                                            opt.workload.c_str(),
                                            static_cast<unsigned long long>(opt.seed)),
                        tr.to_json());
  }
  if (r.attempted == 0) r.attempted = 1;
  std::printf("%s\n", result_json(correct, r).c_str());
  return correct ? 0 : 1;
}
