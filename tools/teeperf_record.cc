// The recorder wrapper as its own host process (§II-B stage #2) — the
// paper's command-line workflow:
//
//   teeperf_record -o run -- ./my_instrumented_app args...
//
// The wrapper owns a Recorder session (core/recorder.h): the shared-memory
// log, the counter (in this process, on the host — the TEE never needs a
// timer), the telemetry and the dump. It serves that session, launches the
// application with TEEPERF_SHM/TEEPERF_COUNTER/TEEPERF_SYM set, toggles
// measurement, supervises the spill drainer, waits for the application and
// dumps "run.log". The application (anything linking teeperf_core,
// instrumented via -finstrument-functions or TEEPERF_SCOPE) self-attaches
// before main() and writes "run.sym" at exit.
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
//                        in this wrapper (counter, drain and dump points) and
//                        exported to the child via TEEPERF_FAULTS
//   --fault-seed N       seed for probabilistic / value-drawing faults
//                        (default: 1; exported as TEEPERF_FAULT_SEED)
//
// The session publishes self-telemetry: a second shared-memory region
// "<base>.obs" next to the "<base>.log" segment (base =
// "/teeperf.<pid>.<nonce>", the multi-session naming scheme) holds live
// metrics (ring occupancy, entry rates, counter health) plus a structured
// event journal; a watchdog thread publishes the counter service's health
// verdicts continuously. The session is announced in the on-disk
// session registry ($TEEPERF_SESSION_DIR), which is how teeperf_stats and
// teeperf_monitord discover it. At exit the dump also writes
// "<prefix>.health" (human snapshot) and "<prefix>.events.jsonl", which
// teeperf_analyze folds into its report as the "recorder health" section.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <thread>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "core/recorder.h"
#include "drain/drainer.h"
#include "faultsim/fault.h"

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
  // The session's settings; Recorder builds and serves the session from
  // these. shards -1 = auto, 0 or 1 = one shard, >1 = explicit.
  RecorderOptions ro;
  ro.shm_name = "auto";
  std::string counter = "tsc";
  std::string filter_spec;
  long start_after_ms = -1, stop_after_ms = -1;
  std::string spill_dir;
  u64 spill_chunk_entries = 1u << 15;
  long hold_ms = 0, freeze_counter_after_ms = -1;
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
      ro.max_entries = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "-c" && i + 1 < argc) {
      counter = argv[++i];
    } else if (arg == "--inactive") {
      ro.start_active = false;
    } else if (arg == "--calls-only") {
      ro.record_returns = false;
    } else if (arg == "--returns-only") {
      ro.record_calls = false;
    } else if (arg == "--shards" && i + 1 < argc) {
      long shards = std::atol(argv[++i]);
      if (shards < 0 || shards > static_cast<long>(kMaxLogShards)) {
        usage();
        return 2;
      }
      ro.shards = static_cast<i32>(shards);
    } else if (arg == "--ring") {
      ro.ring_buffer = true;
    } else if (arg == "--spill" && i + 1 < argc) {
      spill_dir = argv[++i];
    } else if (arg == "--spill-chunk-entries" && i + 1 < argc) {
      spill_chunk_entries = static_cast<u64>(std::atoll(argv[++i]));
      if (spill_chunk_entries == 0) {
        usage();
        return 2;
      }
    } else if (arg == "--counter-replicas" && i + 1 < argc) {
      long replicas = std::atol(argv[++i]);
      if (replicas < 0 || replicas > static_cast<long>(kMaxCounterReplicas)) {
        usage();
        return 2;
      }
      ro.counter_replicas = static_cast<u32>(replicas);
    } else if (arg == "--no-telemetry") {
      ro.telemetry = false;
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
      ro.start_active = false;
    } else if (arg == "--stop-after-ms" && i + 1 < argc) {
      stop_after_ms = std::atol(argv[++i]);
    } else {
      usage();
      return 2;
    }
  }
  if (i >= argc || ro.max_entries == 0) {
    usage();
    return 2;
  }
  ro.spill_drain = !spill_dir.empty();
  if (ro.spill_drain && ro.ring_buffer) {
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

  if (counter == "software") ro.counter_mode = CounterMode::kSoftware;
  else if (counter == "steady_clock") ro.counter_mode = CounterMode::kSteadyClock;
  else if (counter != "tsc") {
    usage();
    return 2;
  }

  // Replication only applies to the software counter (hardware sources have
  // nothing to replicate); silently dropping the request would hide a typo'd
  // command line, so reject it.
  if (ro.counter_replicas > 0 && ro.counter_mode != CounterMode::kSoftware) {
    std::fprintf(stderr, "teeperf_record: --counter-replicas requires "
                         "-c software\n");
    return 2;
  }

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

  // The session, owned by this wrapper: the shm log under a fresh
  // collision-free base "/teeperf.<pid>.<nonce>", the telemetry region
  // "<base>.obs" that teeperf_stats scrapes live and both processes write,
  // and the descriptor in the on-disk session registry, through which
  // teeperf_stats and teeperf_monitord discover it.
  std::unique_ptr<Recorder> rec = Recorder::create(ro);
  if (!rec) {
    std::fprintf(stderr, "teeperf_record: cannot create the shared-memory "
                         "log (%llu entries)\n",
                 static_cast<unsigned long long>(ro.max_entries));
    return 1;
  }
  if (ro.telemetry && !rec->telemetry()) {
    std::fprintf(stderr, "teeperf_record: telemetry shm failed, continuing "
                         "without\n");
  }
  if (rec->session_name().empty()) {
    std::fprintf(stderr,
                 "teeperf_record: cannot publish session descriptor under %s "
                 "(monitoring tools will not discover this session)\n",
                 session_dir.c_str());
  }

  // Spill-drain mode: the drainer thread runs in this wrapper for the whole
  // session, consuming published windows into "<dir>/<prefix-base>.seg.NNNN"
  // chunk files while writers reclaim the space (DESIGN.md §10). Started
  // before the fork so the child's very first batches already have a
  // consumer.
  std::unique_ptr<drain::Drainer> drainer;
  std::function<DrainSample()> drain_sample;
  if (!spill_dir.empty()) {
    std::string base = prefix;
    if (auto slash = base.find_last_of('/'); slash != std::string::npos) {
      base = base.substr(slash + 1);
    }
    drain::DrainerOptions dopts;
    dopts.prefix = spill_dir + "/" + base;
    dopts.chunk_entries = spill_chunk_entries;
    drainer = std::make_unique<drain::Drainer>(&rec->log(), dopts);
    drainer->start();
    drain_sample = [dr = drainer.get()] {
      drain::Drainer::Stats st = dr->stats();
      return DrainSample{st.lag_entries, st.spilled_bytes, st.drained_entries};
    };
  }

  // The counter service and the watchdog run here, on the host: the
  // measured application only ever reads the header word.
  rec->serve(prefix, std::move(drain_sample));
  if (ro.start_active) rec->start();

  pid_t child = fork();
  if (child < 0) {
    std::perror("fork");
    rec->detach();  // the watchdog samples the drainer, which dies first
    return 1;
  }
  if (child == 0) {
    setenv("TEEPERF_SHM", rec->shm_name().c_str(), 1);
    setenv("TEEPERF_COUNTER", counter.c_str(), 1);
    setenv("TEEPERF_SYM", (prefix + ".sym").c_str(), 1);
    if (obs::SelfTelemetry* t = rec->telemetry()) {
      setenv("TEEPERF_OBS", t->shm_name().c_str(), 1);
    }
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
      if (!child_done.load(std::memory_order_acquire)) rec->start();
    }
    if (stop_after_ms >= 0) {
      wait_ms(stop_after_ms - (start_after_ms > 0 ? start_after_ms : 0));
      if (!child_done.load(std::memory_order_acquire)) rec->stop();
    }
  });

  // Watchdog fault injection: freezing the software counter mid-run must
  // surface as a counter_stall event (the acceptance check for the
  // counter-health path; see DESIGN.md "Observability").
  std::thread freezer;
  if (freeze_counter_after_ms >= 0 &&
      ro.counter_mode == CounterMode::kSoftware) {
    freezer = std::thread([&] {
      for (long waited = 0; waited < freeze_counter_after_ms; waited += 10) {
        usleep(10'000);
      }
      rec->counter().stop();
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
  ProfileLog& log = rec->log();
  log.header()->pid = static_cast<u64>(child);

  // Stops the watchdog (journaling the detach) and the counter, whose
  // calibration over the whole run goes into the header.
  rec->detach();
  log.set_active(false);
  if (drainer) {
    // Writers are gone: drain every remaining published window to chunks.
    // Unpublished residue (a writer killed between reserve and publish)
    // stays in the shm windows and lands in the compact .log below.
    if (drainer->dead()) drainer->restart();
    drainer->final_drain();
  }

  // The compact .log (and the telemetry sidecars), exactly as an
  // in-process session dumps, dump fault points included. The .sym is the
  // application's, written at its exit.
  if (!rec->dump(prefix)) {
    std::fprintf(stderr, "teeperf_record: writing %s.log failed\n",
                 prefix.c_str());
    return 1;
  }

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
               static_cast<unsigned long long>(log.size()),
               static_cast<unsigned long long>(log.attempted()), counter.c_str(),
               prefix.c_str(),
               file_exists(prefix + ".sym") ? (" + " + prefix + ".sym").c_str()
                                            : " (no .sym — did the app link "
                                              "teeperf_core?)",
               rec->telemetry() ? " + .health + .events.jsonl" : "");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 1;
}
