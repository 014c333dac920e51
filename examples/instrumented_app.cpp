// The paper's compiler route, end to end (§II-B stage #1, §III):
// this file is compiled with -finstrument-functions (see CMakeLists), so
// gcc injects __cyg_profile_func_enter/exit around every function — the
// hooks in libteeperf_cyg write the shared-memory log, and dump-time
// symbolization resolves the raw function addresses via dladdr (the
// addr2line/DWARF stand-in). No TEEPERF_SCOPE macros appear in the workload.
//
// Run:  ./instrumented_app [output_dir]
#include <cstdio>
#include <string>
#include <vector>

#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "core/auto_attach.h"
#include "core/profiler.h"

using namespace teeperf;

// The workload: deliberately plain functions, no profiler awareness at all.
// noinline keeps the call structure visible at -O2+ (the paper compiles the
// *application* with instrumentation; inlined calls are legitimately not
// instrumented, but a demo wants stable frames).
#define DEMO_FN __attribute__((noinline))

DEMO_FN int fibonacci(int n) {
  if (n < 2) return n;
  return fibonacci(n - 1) + fibonacci(n - 2);
}

DEMO_FN u64 sum_squares(const std::vector<u64>& values) {
  u64 total = 0;
  for (u64 v : values) total += v * v;
  return total;
}

DEMO_FN u64 run_workload() {
  std::vector<u64> values(1000);
  for (usize i = 0; i < values.size(); ++i) values[i] = i;
  u64 result = sum_squares(values);
  result += static_cast<u64>(fibonacci(19));
  return result;
}

int main(int argc, char** argv) {
  // Wrapper mode: when launched under teeperf_record, the session was
  // attached before main() (auto_attach.cc) — just run the workload; the
  // wrapper owns the log and this process writes the .sym file at exit.
  if (attached_from_env()) {
    u64 result = run_workload();
    std::printf("workload result: %llu (recorded by wrapper)\n",
                static_cast<unsigned long long>(result));
    return 0;
  }

  std::string out_dir = argc > 1 ? argv[1] : make_temp_dir("teeperf_cyg_");
  make_dirs(out_dir);

  RecorderOptions opts;
  opts.max_entries = 1 << 18;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) {
    std::fprintf(stderr, "failed to set up recorder\n");
    return 1;
  }

  u64 result = run_workload();

  recorder->detach();
  std::printf("workload result: %llu\n", static_cast<unsigned long long>(result));
  std::printf("log entries: %llu\n",
              static_cast<unsigned long long>(recorder->stats().entries));

  std::string prefix = out_dir + "/instrumented";
  recorder->dump(prefix);

  auto agg = analyzer::StreamAnalyzer::analyze(prefix);
  if (!agg) return 1;
  std::printf("\n%s\n\n%s\n", analyzer::mprof_summary(*agg).c_str(),
              analyzer::method_report(*agg, 15).c_str());

  // fibonacci(19) makes 13529 calls; the dladdr symbolization must name it.
  bool found_fib = false;
  for (const auto& [name, m] : agg->methods) {
    if (name.find("fibonacci") != std::string::npos) {
      found_fib = true;
      std::printf("fibonacci resolved via dladdr: %llu invocations\n",
                  static_cast<unsigned long long>(m.count));
    }
  }
  if (!found_fib) {
    std::printf("note: fibonacci frames not symbolized (static binary without "
                "-rdynamic?) — addresses still recorded\n");
  }
  return 0;
}
