// Live self-telemetry scraper (TEEMon-style): attaches to the obs
// shared-memory region of a running teeperf_record session (or any Recorder
// with a named log) from an untrusted host process and prints its health
// metrics and event journal — without touching the session.
//
//   teeperf_stats <pid | session-name | shm-name> [options]
//   teeperf_stats --list
//
// The positional argument is resolved through the session registry
// ($TEEPERF_SESSION_DIR — see common/session_registry.h): a pid matches
// the session that pid published (the newest, if it published several), a
// session name ("teeperf.<pid>.<nonce>") matches its descriptor. An
// explicit shm name (".obs" appended when missing) bypasses the registry;
// a bare pid with no descriptor falls back to the legacy
// "/teeperf.<pid>.obs" name. --list enumerates every registered session.
//
// Options:
//   --json         JSON-lines instead of human text (metrics then events)
//   --events N     show up to N journal records           (default: 32)
//   --watch MS     re-print every MS milliseconds until the session goes
//                  away or interrupted (streaming mode)
//   --no-events    metrics only
//   --arm NAME=N   externally arm fault point NAME (nth=N) in the session:
//                  writes gauge "fault.arm.NAME" into the obs region; the
//                  session's watchdog polls it, arms the point and clears
//                  the gauge (TESTING.md "External arming"). Repeatable.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/report.h"
#include "common/session_registry.h"
#include "common/stringutil.h"
#include "obs/export.h"
#include "obs/metric_names.h"
#include "obs/session.h"

using namespace teeperf;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: teeperf_stats <pid | session | shm-name> [--json] "
               "[--events N] [--watch ms] [--no-events] [--arm name=N]\n"
               "       teeperf_stats --list\n"
               "       teeperf_stats --mprof <file.mprof>\n");
}

// `teeperf_stats --mprof <file>`: offline inspection of a mergeable profile
// aggregate (DESIGN.md §12) — summary line plus the sorted method table.
int mprof_main(const char* path) {
  std::string err;
  auto m = analyzer::MergeableProfile::load(path, &err);
  if (!m) {
    std::fprintf(stderr, "teeperf_stats: cannot load %s: %s\n", path,
                 err.c_str());
    return 1;
  }
  std::printf("%s\n%s", analyzer::mprof_summary(*m).c_str(),
              analyzer::method_report(*m).c_str());
  return 0;
}

bool all_digits(const char* s) {
  if (!*s) return false;
  for (; *s; ++s) {
    if (*s < '0' || *s > '9') return false;
  }
  return true;
}

// Registry-first resolution: a pid or session name finds the obs segment
// through the published descriptor, so concurrent sessions can never
// cross-attach. Explicit shm names and the legacy "/teeperf.<pid>.obs"
// convention keep working.
std::string resolve_name(const char* arg) {
  auto sessions = session_registry::list_sessions(session_registry::registry_dir());
  if (all_digits(arg)) {
    u64 pid = static_cast<u64>(std::atoll(arg));
    const session_registry::SessionDescriptor* best = nullptr;
    for (const auto& d : sessions) {
      if (d.pid == pid && !d.obs_shm.empty() &&
          (!best || d.start_ns > best->start_ns)) {
        best = &d;
      }
    }
    if (best) return best->obs_shm;
    return str_format("/teeperf.%s.obs", arg);
  }
  for (const auto& d : sessions) {
    if (d.name == arg && !d.obs_shm.empty()) return d.obs_shm;
  }
  std::string name = arg;
  if (!ends_with(name, ".obs")) name += ".obs";
  return name;
}

// `teeperf_stats --list`: one line per registered session.
int list_sessions_main() {
  auto sessions = session_registry::list_sessions(session_registry::registry_dir());
  if (sessions.empty()) {
    std::printf("no registered sessions under %s\n",
                session_registry::registry_dir().c_str());
    return 0;
  }
  std::printf("%-36s %8s %-6s %s\n", "SESSION", "PID", "STATE", "OBS");
  for (const auto& d : sessions) {
    std::printf("%-36s %8llu %-6s %s\n", d.name.c_str(),
                static_cast<unsigned long long>(d.pid),
                session_registry::pid_alive(d.pid) ? "live" : "stale",
                d.obs_shm.empty() ? "-" : d.obs_shm.c_str());
  }
  return 0;
}

// Read-only metric lookup: gauge()/counter() are find-or-create, and a
// scraper must never grow the scraped session's registry just to peek.
u64 scalar_value(const obs::MetricsRegistry& reg, std::string_view name) {
  u64 v = 0;
  reg.visit_scalars([&](const obs::MetricSlot& s) {
    if (name == s.name) v = s.value.load(std::memory_order_relaxed);
  });
  return v;
}

void print_snapshot(obs::SelfTelemetry& t, bool json, bool events, usize limit) {
  if (json) {
    std::fputs(obs::metrics_jsonl(t.registry()).c_str(), stdout);
    if (events) std::fputs(obs::events_jsonl(t.journal()).c_str(), stdout);
  } else {
    std::printf("session %s (pid %llu): %zu metrics, %llu events\n",
                t.shm_name().c_str(),
                static_cast<unsigned long long>(
                    t.registry().layout().header->pid),
                t.registry().scalar_count() + t.registry().histogram_count(),
                static_cast<unsigned long long>(t.journal().total()));
    // Replicated-counter sessions get a one-line health digest above the raw
    // metric dump — the first thing an operator wants from trusted time.
    if (u64 replicas = scalar_value(t.registry(),
                                    obs::metric_names::kCounterReplicas)) {
      std::printf(
          "replicated counter: %llu replicas, primary=%llu, failovers=%llu, "
          "stalled=%llu, drift=%llu permille\n",
          static_cast<unsigned long long>(replicas),
          static_cast<unsigned long long>(scalar_value(
              t.registry(), obs::metric_names::kCounterReplicaPrimary)),
          static_cast<unsigned long long>(scalar_value(
              t.registry(), obs::metric_names::kCounterFailover)),
          static_cast<unsigned long long>(scalar_value(
              t.registry(), obs::metric_names::kCounterReplicaStalled)),
          static_cast<unsigned long long>(scalar_value(
              t.registry(), obs::metric_names::kCounterReplicaDrift)));
    }
    std::fputs(obs::metrics_text(t.registry()).c_str(), stdout);
    if (events) {
      std::printf("events:\n");
      std::fputs(obs::events_text(t.journal(), limit).c_str(), stdout);
    }
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  if (std::strcmp(argv[1], "--list") == 0) {
    if (argc != 2) {
      usage();
      return 2;
    }
    return list_sessions_main();
  }
  if (std::strcmp(argv[1], "--mprof") == 0) {
    if (argc != 3) {
      usage();
      return 2;
    }
    return mprof_main(argv[2]);
  }
  bool json = false, events = true;
  usize event_limit = 32;
  long watch_ms = -1;
  std::vector<std::pair<std::string, u64>> arms;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-events") {
      events = false;
    } else if (arg == "--events" && i + 1 < argc) {
      event_limit = static_cast<usize>(std::atoll(argv[++i]));
    } else if (arg == "--watch" && i + 1 < argc) {
      watch_ms = std::atol(argv[++i]);
    } else if (arg == "--arm" && i + 1 < argc) {
      std::string spec = argv[++i];
      usize eq = spec.find('=');
      std::string point = spec.substr(0, eq == std::string::npos ? spec.size() : eq);
      long n = eq == std::string::npos ? 1 : std::atol(spec.c_str() + eq + 1);
      if (point.empty() || n < 1) {
        std::fprintf(stderr, "teeperf_stats: bad --arm spec '%s' (want name=N)\n",
                     spec.c_str());
        usage();
        return 2;
      }
      arms.emplace_back(point, static_cast<u64>(n));
    } else {
      usage();
      return 2;
    }
  }

  std::string name = resolve_name(argv[1]);
  auto telemetry = obs::SelfTelemetry::open(name);
  if (!telemetry) {
    std::fprintf(stderr,
                 "teeperf_stats: no telemetry region at %s (is the session "
                 "running, and was it created with telemetry on?)\n",
                 name.c_str());
    return 1;
  }

  // External fault arming: write the request gauges; the session's watchdog
  // polls them, arms the named points in-process and zeroes the gauges.
  for (const auto& [point, n] : arms) {
    telemetry->registry().gauge(teeperf::obs::metric_names::kFaultArmPrefix + point).set(n);
    std::fprintf(stderr, "teeperf_stats: armed %s (nth=%llu) in %s\n",
                 point.c_str(), static_cast<unsigned long long>(n),
                 telemetry->shm_name().c_str());
  }

  print_snapshot(*telemetry, json, events, event_limit);
  while (watch_ms > 0) {
    usleep(static_cast<useconds_t>(watch_ms) * 1000);
    // Reopen each round: when the owner exits and unlinks the region, the
    // open fails and streaming ends cleanly.
    auto again = obs::SelfTelemetry::open(name);
    if (!again) {
      std::fprintf(stderr, "teeperf_stats: session ended\n");
      break;
    }
    if (!json) std::printf("---\n");
    print_snapshot(*again, json, events, event_limit);
  }
  return 0;
}
