#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analyzer/stream.h"
#include "bench.h"
#include "common/fileutil.h"
#include "common/stringutil.h"

extern char** environ;

namespace perfbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double dropped_ratio(u64 lost, u64 attempted) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(lost) / static_cast<double>(attempted);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  usize n = xs.size();
  return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2.0;
}

double max_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

std::string result_json(bool correct, const Result& r) {
  std::string out = teeperf::str_format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed));
  for (usize i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += teeperf::str_format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                               i ? ", " : "", m.name.c_str(), m.value,
                               m.unit.c_str());
  }
  out += "}}";
  return out;
}

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

// ---- spans ------------------------------------------------------------------

Span::Span(Tracer& tracer, std::string name) : tracer_(tracer) {
  start_ns_ = now_ns();
  if (tracer_.enabled_) {
    id_ = static_cast<int>(tracer_.spans_.size());
    int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
    tracer_.spans_.push_back({std::move(name), parent, start_ns_, 0});
    tracer_.open_.push_back(id_);
  }
}

double Span::stop() {
  if (seconds_ >= 0) return seconds_;
  u64 end = now_ns();
  seconds_ = static_cast<double>(end - start_ns_) / 1e9;
  if (id_ >= 0) {
    tracer_.spans_[static_cast<usize>(id_)].end_ns = end;
    // Spans close innermost-first; erase rather than pop so an early stop()
    // of an outer span cannot unbalance the stack.
    auto it = std::find(tracer_.open_.begin(), tracer_.open_.end(), id_);
    if (it != tracer_.open_.end()) tracer_.open_.erase(it);
  }
  return seconds_;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Rec& r : spans_) {
    if (r.name == name && r.end_ns >= r.start_ns && r.end_ns != 0) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) / 1e9);
    }
  }
  return out;
}

double Tracer::median_s(std::string_view name) const {
  return median(durations(name));
}

std::string Tracer::to_json() const {
  std::string out = "[\n";
  for (usize i = 0; i < spans_.size(); ++i) {
    const Rec& r = spans_[i];
    out += teeperf::str_format(
        "%s{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", \"start_ns\": %llu, "
        "\"end_ns\": %llu}",
        i ? ",\n" : "", i, r.parent, r.name.c_str(),
        static_cast<unsigned long long>(r.start_ns),
        static_cast<unsigned long long>(r.end_ns));
  }
  out += "\n]\n";
  return out;
}

// ---- separate-process analysis ----------------------------------------------

double analysis_peak_rss_mb(const Options& opt, const std::string& prefix,
                            u64* entries) {
  int fds[2];
  check(pipe(fds) == 0, "rss probe: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  std::string flag = "--rss-child";
  char* argv[] = {const_cast<char*>(opt.self_exe.c_str()), flag.data(),
                  const_cast<char*>(prefix.c_str()), nullptr};
  pid_t pid = -1;
  int rc = posix_spawn(&pid, opt.self_exe.c_str(), &actions, nullptr, argv,
                       environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    check(false, "rss probe: spawn failed");
  }
  std::string text;
  char buf[256];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    text.append(buf, static_cast<usize>(n));
  }
  close(fds[0]);
  int status = 0;
  pid_t waited;
  while ((waited = waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
  }
  check(waited == pid, "rss probe: wait failed");
  check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
        "rss probe: analysis child failed");
  unsigned long long n = 0, hwm_kib = 0;
  check(std::sscanf(text.c_str(), "%llu %llu", &n, &hwm_kib) == 2 && hwm_kib > 0,
        "rss probe: unreadable child report");
  *entries = n;
  return static_cast<double>(hwm_kib) / 1024.0;
}

int rss_child_main(const std::string& prefix) {
  std::string error;
  auto m = teeperf::analyzer::StreamAnalyzer::analyze(prefix, &error);
  if (!m) {
    std::fprintf(stderr, "rss child: %s\n", error.c_str());
    return 1;
  }
  // VmHWM, not wait4's ru_maxrss: exec carries the spawning process's
  // high-water mark into ru_maxrss, VmHWM belongs to this image alone.
  unsigned long long hwm_kib = 0;
  if (auto status = teeperf::read_file("/proc/self/status")) {
    usize at = status->find("VmHWM:");
    if (at != std::string::npos) {
      hwm_kib = std::strtoull(status->c_str() + at + 6, nullptr, 10);
    }
  }
  std::printf("%llu %llu\n", static_cast<unsigned long long>(m->stats.entries),
              hwm_kib);
  return 0;
}

}  // namespace perfbench
