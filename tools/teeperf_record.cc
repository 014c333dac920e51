// The recorder wrapper as its own host process (§II-B stage #2) — the
// paper's command-line workflow:
//
//   teeperf_record -o run -- ./my_instrumented_app args...
//
// The wrapper creates the shared-memory log, optionally runs the software
// counter (in this process, on the host — the TEE never needs a timer),
// launches the application with TEEPERF_SHM/TEEPERF_COUNTER/TEEPERF_SYM
// set, waits for it, and persists "run.log". The application (anything
// linking teeperf_core, instrumented via -finstrument-functions or
// TEEPERF_SCOPE) self-attaches before main() and writes "run.sym" at exit.
//
// Options:
//   -o <prefix>    output prefix                (default: teeperf)
//   -n <entries>   log capacity                 (default: 1048576)
//   -c <counter>   tsc | software | steady_clock (default: tsc)
//   --counter-replicas N   replicated trusted time (DESIGN.md §13, software
//                  counter only): run N counter replicas, each on its own
//                  CPU of the inherited affinity mask where it has enough,
//                  each with a cache-line-isolated shm word; a detector
//                  cross-checks them and fails over when the elected
//                  primary stalls or jumps backwards. 0 (default) and 1 are
//                  the same session: one counter thread, no replica block
//   --shards N     log shard count: per-thread shard segments with
//                  cache-line-private tails (see DESIGN.md "Log format
//                  v2"). 0 or 1 = one shard, the paper's single shared
//                  tail; default auto-sizes to the hardware concurrency
//   --inactive     start with measurement off (flip on later via the log
//                  header flags — dynamic activation)
//   --calls-only / --returns-only   restrict recorded event kinds
//   --filter allow:<names>|deny:<names>   selective profiling in the app
//   --start-after-ms N   activate measurement N ms into the run (implies
//                        --inactive) — the wrapper flips the header flag
//                        while the application executes (§II-B)
//   --stop-after-ms N    deactivate measurement after N ms
//   --ring               ring mode: overwrite oldest entries when full
//                        (keep the newest window of a long run)
//   --spill <dir>        spill-drain mode (DESIGN.md §10): a drainer thread
//                        in this wrapper continuously consumes published
//                        entries to chunk files "<dir>/<prefix-base>.seg.NNNN"
//                        and writers reclaim the space — unbounded sessions
//                        with no ring-mode data loss. Pass the prefix's own
//                        directory so teeperf_analyze finds the chunks next
//                        to the .log. Excludes --ring
//   --spill-chunk-entries N   per-shard entries consumed per chunk
//                        (default: 32768)
//   --no-telemetry       skip the self-telemetry region / watchdog
//   --hold-ms N          keep the session (shm log, telemetry region,
//                        watchdog) alive N ms after the child exits — lets
//                        teeperf_stats scrape a finished-but-held session
//   --freeze-counter-after-ms N   fault injection: stop the software
//                        counter N ms into the run so the watchdog's stall
//                        verdict can be demonstrated end to end
//   --faults <spec>      arm deterministic fault points (see TESTING.md),
//                        e.g. "dump.torn:nth=1;counter.stall:nth=1" — armed
//                        in this wrapper and exported to the child via
//                        TEEPERF_FAULTS
//   --fault-seed N       seed for probabilistic / value-drawing faults
//                        (default: 1; exported as TEEPERF_FAULT_SEED)
//
// The wrapper also publishes self-telemetry: a second shared-memory region
// "<base>.obs" next to the "<base>.log" segment (base =
// "/teeperf.<pid>.<nonce>", the multi-session naming scheme) holds live
// metrics (ring occupancy, entry rates, counter health) plus a structured
// event journal; a watchdog thread publishes the counter service's health
// verdicts continuously. The session is announced in the on-disk
// session registry ($TEEPERF_SESSION_DIR), which is how teeperf_stats and
// teeperf_monitord discover it. At exit the wrapper persists
// "<prefix>.health" (human snapshot) and "<prefix>.events.jsonl", which
// teeperf_analyze folds into its report as the "recorder health" section.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <thread>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "common/shm.h"
#include "common/spin.h"
#include "faultsim/fault.h"
#include "common/stringutil.h"
#include "core/counter.h"
#include "core/log_format.h"
#include "core/recorder.h"
#include "drain/drainer.h"
#include "obs/export.h"
#include "obs/metric_names.h"
#include "obs/session.h"
#include "obs/watchdog.h"

using namespace teeperf;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: teeperf_record [-o prefix] [-n entries] [-c tsc|software|"
               "steady_clock] [--counter-replicas n (0|1: one counter thread)] "
               "[--shards n] [--ring] "
               "[--spill dir] [--inactive] [--calls-only|--returns-only] "
               "[--faults spec] [--fault-seed n] -- <command> [args...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string prefix = "teeperf";
  u64 max_entries = 1u << 20;
  std::string counter = "tsc";
  bool active = true;
  bool calls = true, returns = true;
  std::string filter_spec;
  long start_after_ms = -1, stop_after_ms = -1;
  long shards = -1;  // -1 = auto, 0 or 1 = one shard, >1 = explicit
  bool ring = false;
  std::string spill_dir;
  u64 spill_chunk_entries = 1u << 15;
  bool telemetry = true;
  long hold_ms = 0, freeze_counter_after_ms = -1;
  long counter_replicas = 0;
  std::string fault_spec;
  u64 fault_seed = 1;

  int i = 1;
  for (; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--") {
      ++i;
      break;
    } else if (arg == "-o" && i + 1 < argc) {
      prefix = argv[++i];
    } else if (arg == "-n" && i + 1 < argc) {
      max_entries = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "-c" && i + 1 < argc) {
      counter = argv[++i];
    } else if (arg == "--inactive") {
      active = false;
    } else if (arg == "--calls-only") {
      returns = false;
    } else if (arg == "--returns-only") {
      calls = false;
    } else if (arg == "--shards" && i + 1 < argc) {
      shards = std::atol(argv[++i]);
      if (shards < 0 || shards > static_cast<long>(kMaxLogShards)) {
        usage();
        return 2;
      }
    } else if (arg == "--ring") {
      ring = true;
    } else if (arg == "--spill" && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (arg == "--spill-chunk-entries" && i + 1 < argc) {
      spill_chunk_entries = static_cast<u64>(std::atoll(argv[++i]));
      if (spill_chunk_entries == 0) {
        usage();
        return 2;
      }
    } else if (arg == "--counter-replicas" && i + 1 < argc) {
      counter_replicas = std::atol(argv[++i]);
      if (counter_replicas < 0 ||
          counter_replicas > static_cast<long>(kMaxCounterReplicas)) {
        usage();
        return 2;
      }
    } else if (arg == "--no-telemetry") {
      telemetry = false;
    } else if (arg == "--hold-ms" && i + 1 < argc) {
      hold_ms = std::atol(argv[++i]);
    } else if (arg == "--freeze-counter-after-ms" && i + 1 < argc) {
      freeze_counter_after_ms = std::atol(argv[++i]);
    } else if (arg == "--faults" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "--filter" && i + 1 < argc) {
      filter_spec = argv[++i];
    } else if (arg == "--start-after-ms" && i + 1 < argc) {
      start_after_ms = std::atol(argv[++i]);
      active = false;
    } else if (arg == "--stop-after-ms" && i + 1 < argc) {
      stop_after_ms = std::atol(argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  if (i >= argc || max_entries == 0) {
    usage();
    return 2;
  }
  if (!spill_dir.empty() && ring) {
    std::fprintf(stderr, "teeperf_record: --spill excludes --ring (the two "
                         "reclaim policies cannot coexist)\n");
    return 2;
  }

  // Fault injection (TESTING.md): a bad spec is a usage error — arming the
  // wrong point silently would make a fault run look healthy.
  if (!fault_spec.empty()) {
    fault::Registry::instance().set_seed(fault_seed);
    std::string fault_error;
    if (!fault::Registry::instance().arm_from_spec(fault_spec, &fault_error)) {
      std::fprintf(stderr, "teeperf_record: bad --faults spec: %s\n",
                   fault_error.c_str());
      usage();
      return 2;
    }
  }

  CounterMode mode = CounterMode::kTsc;
  if (counter == "software") mode = CounterMode::kSoftware;
  else if (counter == "steady_clock") mode = CounterMode::kSteadyClock;
  else if (counter != "tsc") {
    usage();
    return 2;
  }

  u32 shard_count = pick_shard_count(shards, max_entries);

  // Stale-session GC on the way in: reclaim descriptors and shm segments
  // orphaned by crashed sessions, so a host that loops crashing recorders
  // never leaks /dev/shm (the same sweep teeperf_monitord runs
  // continuously).
  std::string session_dir = session_registry::registry_dir();
  {
    auto gc = session_registry::gc_stale_sessions(session_dir);
    if (gc.descriptors || gc.segments) {
      std::fprintf(stderr,
                   "teeperf_record: reclaimed %u stale session descriptor(s), "
                   "%u orphaned shm segment(s)\n",
                   gc.descriptors, gc.segments);
    }
  }

  // Shared-memory log, owned by this wrapper. The session base
  // "/teeperf.<pid>.<nonce>" is collision-free across concurrent sessions
  // (and pid reuse); creation is O_EXCL so a nonce collision just retries.
  // Replication only applies to the software counter (hardware sources have
  // nothing to replicate); silently dropping the request would hide a typo'd
  // command line, so reject it.
  if (counter_replicas > 0 && mode != CounterMode::kSoftware) {
    std::fprintf(stderr, "teeperf_record: --counter-replicas requires "
                         "-c software\n");
    return 2;
  }
  // One replica is the single counter thread, which needs no block.
  u32 replica_count =
      counter_replicas >= 2 ? static_cast<u32>(counter_replicas) : 0;

  std::string shm_base;
  std::string shm_name;
  SharedMemoryRegion shm;
  usize bytes =
      ProfileLog::bytes_for_replicated(max_entries, shard_count, replica_count);
  for (int attempt = 0; attempt < 4 && !shm.valid(); ++attempt) {
    shm_base = session_registry::shm_base(static_cast<u64>(getpid()),
                                          session_registry::make_nonce());
    shm_name = shm_base + ".log";
    shm.create(shm_name, bytes);
  }
  if (!shm.valid()) {
    std::fprintf(stderr, "teeperf_record: shm_open(%s, %zu bytes) failed\n",
                 shm_name.c_str(), bytes);
    return 1;
  }
  ProfileLog log;
  u64 flags = log_flags::kMultithread;
  if (ring) flags |= log_flags::kRingBuffer;
  if (!spill_dir.empty()) flags |= log_flags::kSpillDrain;
  if (active) flags |= log_flags::kActive;
  if (calls) flags |= log_flags::kRecordCalls;
  if (returns) flags |= log_flags::kRecordReturns;
  if (!log.init(shm.data(), bytes, 0, flags, shard_count, replica_count)) {
    std::fprintf(stderr, "teeperf_record: log init failed\n");
    return 1;
  }
  log.header()->counter_mode = static_cast<u32>(mode);

  // Spill-drain mode: the drainer thread runs in this wrapper for the whole
  // session, consuming published windows into "<dir>/<prefix-base>.seg.NNNN"
  // chunk files while writers reclaim the space (DESIGN.md §10). Started
  // before the fork so the child's very first batches already have a
  // consumer.
  std::unique_ptr<drain::Drainer> drainer;
  if (!spill_dir.empty()) {
    std::string base = prefix;
    if (auto slash = base.find_last_of('/'); slash != std::string::npos) {
      base = base.substr(slash + 1);
    }
    drain::DrainerOptions dopts;
    dopts.prefix = spill_dir + "/" + base;
    dopts.chunk_entries = spill_chunk_entries;
    drainer = std::make_unique<drain::Drainer>(&log, dopts);
    drainer->start();
  }

  // Self-telemetry region, scraped live by teeperf_stats and written to by
  // both this wrapper (watchdog gauges, journal) and the child (per-thread
  // entry counters).
  std::unique_ptr<obs::SelfTelemetry> telem;
  if (telemetry) {
    obs::TelemetryOptions topts;
    topts.shm_name = shm_base + ".obs";
    telem = obs::SelfTelemetry::create(topts);
    if (!telem) {
      std::fprintf(stderr, "teeperf_record: telemetry shm failed, continuing "
                           "without\n");
    } else {
      // Publishes the region process-wide and bridges external fault arming
      // (teeperf_stats --arm → "fault.arm.*" gauges → watchdog poll).
      obs::install(telem.get());
    }
  }

  // Announce the session in the on-disk registry so host-side observers
  // (teeperf_monitord, teeperf_stats --list / <pid>) can discover it
  // without guessing shm names. Withdrawn at exit; a crashed wrapper's
  // descriptor is reclaimed by the stale-session GC above.
  session_registry::SessionDescriptor session_desc;
  session_desc.name = shm_base.substr(1);  // drop the leading '/'
  session_desc.pid = static_cast<u64>(getpid());
  session_desc.log_shm = shm_name;
  if (telem) session_desc.obs_shm = telem->shm_name();
  session_desc.prefix = prefix;
  session_desc.capacity = max_entries;
  session_desc.shards = log.shard_count();
  session_desc.start_ns = monotonic_ns();
  if (!session_registry::publish_session(session_dir, session_desc)) {
    std::fprintf(stderr,
                 "teeperf_record: cannot publish session descriptor under %s "
                 "(monitoring tools will not discover this session)\n",
                 session_dir.c_str());
  }

  // The counter service runs here, on the host — the measured application
  // only ever reads the header word. With --counter-replicas the elected
  // primary mirrors into the same header word, so the child's probe path is
  // identical.
  CounterService counter_service(&log, mode, {},
                                 telem ? &telem->journal() : nullptr);
  counter_service.start();

  std::unique_ptr<obs::Watchdog> watchdog;
  if (telem) {
    std::function<DrainSample()> drain_sample;
    if (drain::Drainer* dr = drainer.get()) {
      drain_sample = [dr] {
        drain::Drainer::Stats st = dr->stats();
        return DrainSample{st.lag_entries, st.spilled_bytes,
                           st.drained_entries};
      };
    }
    watchdog = start_session_watchdog(telem.get(), &log, &counter_service,
                                      RecorderOptions().watchdog_interval_ms,
                                      drain_sample);
    if (active) telem->journal().record(obs::EventType::kActivate);
  }

  pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    setenv("TEEPERF_SHM", shm_name.c_str(), 1);
    setenv("TEEPERF_COUNTER", counter.c_str(), 1);
    setenv("TEEPERF_SYM", (prefix + ".sym").c_str(), 1);
    if (telem) setenv("TEEPERF_OBS", telem->shm_name().c_str(), 1);
    if (!fault_spec.empty()) {
      setenv("TEEPERF_FAULTS", fault_spec.c_str(), 1);
      setenv("TEEPERF_FAULT_SEED", std::to_string(fault_seed).c_str(), 1);
    }
    if (!filter_spec.empty()) setenv("TEEPERF_FILTER", filter_spec.c_str(), 1);
    execvp(argv[i], argv + i);
    std::perror("execvp");
    _exit(127);
  }

  // Dynamic activation (§II-B): the flags word is atomic in shared memory,
  // so the wrapper can toggle measurement while the application runs.
  std::atomic<bool> child_done{false};
  std::thread toggler([&] {
    auto wait_ms = [&](long ms) {
      for (long waited = 0; waited < ms && !child_done.load(std::memory_order_acquire); waited += 10) {
        usleep(10'000);
      }
    };
    if (start_after_ms >= 0) {
      wait_ms(start_after_ms);
      if (!child_done.load(std::memory_order_acquire)) {
        log.set_active(true);
        if (telem) telem->journal().record(obs::EventType::kActivate);
      }
    }
    if (stop_after_ms >= 0) {
      wait_ms(stop_after_ms - (start_after_ms > 0 ? start_after_ms : 0));
      if (!child_done.load(std::memory_order_acquire)) {
        log.set_active(false);
        if (telem) telem->journal().record(obs::EventType::kDeactivate);
      }
    }
  });

  // Watchdog fault injection: freezing the software counter mid-run must
  // surface as a counter_stall event (the acceptance check for the
  // counter-health path; see DESIGN.md "Observability").
  std::thread freezer;
  if (freeze_counter_after_ms >= 0 && mode == CounterMode::kSoftware) {
    freezer = std::thread([&] {
      for (long waited = 0; waited < freeze_counter_after_ms; waited += 10) {
        usleep(10'000);
      }
      counter_service.stop();
    });
  }

  int status = 0;
  if (drainer) {
    // Supervise child and drainer together. A dead drainer (fault injection,
    // chunk I/O failure) is restarted in place — resume is safe because
    // chunks are persisted before the drained cursor advances, and the next
    // sequence number is recovered from the files already on disk.
    while (waitpid(child, &status, WNOHANG) == 0) {
      if (drainer->dead()) {
        std::fprintf(stderr, "teeperf_record: drainer died; resuming\n");
        drainer->restart();
      }
      usleep(2'000);
    }
  } else {
    waitpid(child, &status, 0);
  }
  if (hold_ms > 0) {
    // Keep the session (and its live telemetry) scrapeable for a while —
    // demos and tests attach teeperf_stats during this window.
    usleep(static_cast<useconds_t>(hold_ms) * 1000);
  }
  child_done.store(true, std::memory_order_release);
  toggler.join();
  if (freezer.joinable()) freezer.join();
  log.header()->pid = static_cast<u64>(child);

  // The counter service's calibration of the header word over the whole
  // run, closed when the counter stops. 0 = "uncalibrated" downstream.
  counter_service.stop();
  log.header()->ns_per_tick = counter_service.ns_per_tick().value_or(0.0);
  log.set_active(false);
  if (drainer) {
    // Writers are gone: drain every remaining published window to chunks.
    // Unpublished residue (a writer killed between reserve and publish)
    // stays in the shm windows and lands in the compact .log below.
    if (drainer->dead()) drainer->restart();
    drainer->final_drain();
  }

  u64 tail = log.attempted();
  u64 n = log.size();
  // Compact form (windows packed back-to-back, ring order normalized) so
  // offline loaders see plain order with no gaps. The wrapper applies no
  // byte faults: those belong to the in-process Recorder::dump.
  if (!log.write_compact(prefix + ".log")) {
    std::fprintf(stderr, "teeperf_record: writing %s.log failed\n",
                 prefix.c_str());
    return 1;
  }

  // Telemetry teardown: final health snapshot + event journal become sidecar
  // files next to the log, which teeperf_analyze folds into its report.
  if (telem) {
    obs::MetricsRegistry& reg = telem->registry();
    if (u64 torn = log.count_torn_tail()) {
      reg.gauge(obs::metric_names::kLogTornTail).set(torn);
      telem->journal().record(obs::EventType::kTornTail, torn, tail);
    }
    if (watchdog) watchdog->stop();
    // The shard drop counters live in shared memory, so the child's drops
    // are visible here directly — no reconstruction from the tail.
    telem->journal().record(obs::EventType::kDetach, n, log.dropped());
    if (!write_file(prefix + ".health",
                    obs::health_text(reg, telem->journal()))) {
      std::fprintf(stderr, "teeperf_record: writing %s.health failed\n",
                   prefix.c_str());
    }
    if (!write_file(prefix + ".events.jsonl",
                    obs::events_jsonl(telem->journal()))) {
      std::fprintf(stderr, "teeperf_record: writing %s.events.jsonl failed\n",
                   prefix.c_str());
    }
    obs::uninstall(telem.get());
  }
  session_registry::unpublish_session(session_dir, session_desc.name);

  if (drainer) {
    drain::Drainer::Stats st = drainer->stats();
    std::fprintf(stderr,
                 "teeperf_record: spilled %llu entries to %u chunks "
                 "(%llu bytes) under %s\n",
                 static_cast<unsigned long long>(st.drained_entries),
                 static_cast<unsigned>(st.chunks),
                 static_cast<unsigned long long>(st.spilled_bytes),
                 spill_dir.c_str());
  }
  std::fprintf(stderr,
               "teeperf_record: %llu entries (%llu attempted), counter=%s, "
               "wrote %s.log%s%s\n",
               static_cast<unsigned long long>(n),
               static_cast<unsigned long long>(tail), counter.c_str(),
               prefix.c_str(),
               file_exists(prefix + ".sym") ? (" + " + prefix + ".sym").c_str()
                                            : " (no .sym — did the app link "
                                              "teeperf_core?)",
               telem ? " + .health + .events.jsonl" : "");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 1;
}
