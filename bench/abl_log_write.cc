// Ablation A1 — the lock-free log (§II-B/§II-C design choice).
//
// The paper argues the append-only log with an atomic fetch-and-add tail
// keeps write overhead minimal. This microbenchmark compares the shipped
// lock-free append against a mutex-guarded variant (what the design
// rejected), single-threaded and contended, plus the full instrumentation
// hook cost (scope enter+exit).
//
// Besides the google-benchmark registrations, `--sweep` runs the format-v2
// regression harness (TESTING.md "Bench regression"): a 1/2/4/8-writer
// contention sweep of a single shared tail (one shard, per-event append —
// the paper's Figure 2 log) against sharded + batched publication, emitted
// as machine-readable JSON. The JSON keeps its historical key names: "v1"
// is the single shared tail, "v2" the sharded + batched log.
// `--check <baseline.json>` compares the measured speedup ratios against
// the checked-in baseline and exits non-zero on a >25% regression —
// ratios, not absolute ns, so the gate is stable across machine speeds.
//
// The sweep also measures each config on a pre-wrapped ring (shard tails
// advanced one full lap before the run), gating the wrap penalty: a flush
// landing past the wrap must still publish as at most two memcpy spans,
// not degrade to the per-entry modulo loop. And a spill-drain smoke pushes
// four writers through a log a fraction of the session size with a live
// drainer, gating zero drops and nonzero spilled bytes.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fileutil.h"
#include "core/profiler.h"
#include "drain/drainer.h"

namespace {

using namespace teeperf;

// The rejected alternative: same one-shard layout, tail guarded by a mutex.
class MutexLog {
 public:
  explicit MutexLog(u64 capacity) : buf_(ProfileLog::bytes_for(capacity)) {
    log_.init(buf_.data(), buf_.size(), 1, log_flags::kActive);
  }

  bool append(EventKind kind, u64 addr, u64 tid, u64 counter) {
    std::lock_guard<std::mutex> lock(mu_);
    LogShard* sh = log_.shard(0);
    u64 slot = sh->tail.load(std::memory_order_relaxed);
    if (slot >= sh->capacity) return false;
    sh->tail.store(slot + 1, std::memory_order_relaxed);
    LogEntry& e = log_.segment(0)[slot];
    e.kind_and_counter = LogEntry::pack(kind, counter);
    e.addr = addr;
    e.tid = tid;
    return true;
  }

  void reset() { log_.shard(0)->tail.store(0, std::memory_order_relaxed); }

 private:
  std::vector<u8> buf_;
  ProfileLog log_;
  std::mutex mu_;
};

constexpr u64 kCapacity = 1u << 22;

void BM_LockFreeAppend(benchmark::State& state) {
  static std::vector<u8>* buf = new std::vector<u8>(ProfileLog::bytes_for(kCapacity));
  static ProfileLog* log = [] {
    auto* l = new ProfileLog();
    l->init(buf->data(), buf->size(), 1, log_flags::kActive);
    return l;
  }();
  if (state.thread_index() == 0) log->shard(0)->tail.store(0, std::memory_order_relaxed);
  u64 i = 0;
  for (auto _ : state) {
    if (!log->append(EventKind::kCall, 0x1000 + i, 0, i)) {
      log->shard(0)->tail.store(0, std::memory_order_relaxed);
    }
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockFreeAppend);
BENCHMARK(BM_LockFreeAppend)->Threads(4)->UseRealTime();

void BM_MutexAppend(benchmark::State& state) {
  static MutexLog* log = new MutexLog(kCapacity);
  if (state.thread_index() == 0) log->reset();
  u64 i = 0;
  for (auto _ : state) {
    if (!log->append(EventKind::kCall, 0x1000 + i, 0, i)) log->reset();
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MutexAppend);
BENCHMARK(BM_MutexAppend)->Threads(4)->UseRealTime();

// The full per-event cost an instrumented application pays: scope
// constructor + destructor with an attached, active session. The scopes
// nest in one outer scope, as instrumented code does, so they take the
// batched path; the session is a ring, so it never drops, and the run
// checks that it did not.
void BM_ScopeEnterExit(benchmark::State& state) {
  RecorderOptions opts;
  opts.max_entries = 1u << 16;
  opts.counter_mode = CounterMode::kTsc;
  opts.ring_buffer = true;
  opts.publish_session = false;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) {
    state.SkipWithError("recorder setup failed");
    return;
  }
  static const u64 outer = SymbolRegistry::instance().intern("bench::outer");
  static const u64 id = SymbolRegistry::instance().intern("bench::scope");
  {
    Scope o(outer);
    for (auto _ : state) {
      Scope s(id);
      benchmark::DoNotOptimize(s);
    }
  }
  recorder->detach();
  if (recorder->stats().dropped != 0) {
    state.SkipWithError("scope benchmark dropped entries");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopeEnterExit);

// The same scope when no session is attached: the cost left in a binary
// shipped with instrumentation compiled in but profiling off.
void BM_ScopeDetached(benchmark::State& state) {
  if (teeperf::runtime::attached()) teeperf::runtime::detach();
  static const u64 id = SymbolRegistry::instance().intern("bench::scope_off");
  for (auto _ : state) {
    Scope s(id);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopeDetached);

// ------------------------------------------------------------- sweep mode

// One timed contention run: `writers` threads each push `ops` events into a
// shared log. Unsharded runs append event by event to a one-shard log, so
// every writer contends on the one shared tail; sharded runs route through
// the per-thread LogBatch into an 8-shard log — the same path the runtime
// probes take. Ring mode so the measurement never stalls on a full log.
// `prewrap` starts every shard's tail one full lap in, so every flush of the
// run reserves past capacity and exercises the wrapped publication path —
// the regression being gated is that path falling off the two-span memcpy
// onto the per-entry modulo loop.
double run_config(int writers, u64 ops, bool sharded, bool prewrap = false) {
  constexpr u64 kEntries = 1u << 20;
  const u32 shards = sharded ? 8 : 1;
  std::vector<u8> buf(ProfileLog::bytes_for(kEntries, shards));
  ProfileLog log;
  if (!log.init(buf.data(), buf.size(), 1,
                log_flags::kActive | log_flags::kMultithread |
                    log_flags::kRingBuffer,
                shards)) {
    return -1.0;
  }
  if (prewrap) {
    for (u32 s = 0; s < log.shard_count(); ++s) {
      LogShard* sh = log.shard(s);
      sh->tail.store(sh->capacity, std::memory_order_relaxed);
    }
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      const u64 tid = static_cast<u64>(w);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      if (sharded) {
        LogBatch batch;
        for (u64 i = 0; i < ops; ++i) {
          batch.record(log, EventKind::kCall, 0x1000 + tid, tid, i + 1);
        }
        batch.flush(log);
      } else {
        for (u64 i = 0; i < ops; ++i) {
          log.append(EventKind::kCall, 0x1000 + tid, tid, i + 1);
        }
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < writers) {
  }
  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  auto t1 = std::chrono::steady_clock::now();
  double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return ns / (static_cast<double>(writers) * static_cast<double>(ops));
}

struct SweepRow {
  int writers;
  double v1_ns;        // single shared tail: one shard, per-event append
  double v2_ns;        // sharded + batched
  double v2_wrap_ns;  // v2 on a pre-wrapped ring: every flush publishes wrapped
  double speedup() const { return v2_ns > 0 ? v1_ns / v2_ns : 0.0; }
  double wrap_penalty() const { return v2_ns > 0 ? v2_wrap_ns / v2_ns : 0.0; }
};

std::vector<SweepRow> run_sweep(u64 ops, int reps) {
  std::vector<SweepRow> rows;
  for (int writers : {1, 2, 4, 8}) {
    SweepRow row{writers, 1e30, 1e30, 1e30};
    // Best-of-reps: contention sweeps on shared CI machines are noisy in one
    // direction only (interference slows runs down), so min is the estimator.
    for (int r = 0; r < reps; ++r) {
      double v1 = run_config(writers, ops, false);
      double v2 = run_config(writers, ops, true);
      double v2w = run_config(writers, ops, true, /*prewrap=*/true);
      if (v1 > 0 && v1 < row.v1_ns) row.v1_ns = v1;
      if (v2 > 0 && v2 < row.v2_ns) row.v2_ns = v2;
      if (v2w > 0 && v2w < row.v2_wrap_ns) row.v2_wrap_ns = v2w;
    }
    std::fprintf(stderr,
                 "sweep writers=%d v1=%.2fns v2=%.2fns v2_wrap=%.2fns "
                 "speedup=%.2fx wrap_penalty=%.2fx\n",
                 row.writers, row.v1_ns, row.v2_ns, row.v2_wrap_ns,
                 row.speedup(), row.wrap_penalty());
    rows.push_back(row);
  }
  return rows;
}

// Spill-drain smoke: `writers` threads push `ops` events each through a log
// an eighth of the session size while a live drainer spills consumed windows
// to chunk files. Healthy drain means the session completes with zero drops
// and a nonzero spill — writers waited on reclaim instead of discarding.
struct DrainSmoke {
  double ns_per_op = -1.0;
  u64 drained = 0;
  u64 spilled_bytes = 0;
  u64 chunks = 0;
  u64 dropped = 0;
};

DrainSmoke run_drain_smoke(int writers, u64 ops) {
  DrainSmoke out;
  const u64 total = static_cast<u64>(writers) * ops;
  const u32 shards = 4;
  const u64 entries = total / 8 < 1024 ? 1024 : total / 8;
  std::vector<u8> buf(ProfileLog::bytes_for(entries, shards));
  ProfileLog log;
  if (!log.init(buf.data(), buf.size(), 1,
                log_flags::kActive | log_flags::kMultithread |
                    log_flags::kSpillDrain,
                shards)) {
    return out;
  }
  // The gate asserts zero drops, so writers must outwait any drainer
  // scheduling hiccup rather than force-advance past it.
  u64 saved_spins = ProfileLog::spill_wait_spins();
  ProfileLog::set_spill_wait_spins(~u64{0});

  std::string dir = make_temp_dir("teeperf_bench_drain_");
  drain::DrainerOptions dopts;
  dopts.prefix = dir + "/bench";
  dopts.poll_interval_us = 200;
  drain::Drainer drainer(&log, dopts);
  if (!drainer.start()) {
    ProfileLog::set_spill_wait_spins(saved_spins);
    remove_tree(dir);
    return out;
  }

  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      const u64 tid = static_cast<u64>(w);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      LogBatch batch;
      for (u64 i = 0; i < ops; ++i) {
        batch.record(log, EventKind::kCall, 0x1000 + tid, tid, i + 1);
      }
      batch.flush(log);
    });
  }
  while (ready.load(std::memory_order_acquire) < writers) {
  }
  auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  drainer.final_drain();
  auto t1 = std::chrono::steady_clock::now();
  ProfileLog::set_spill_wait_spins(saved_spins);

  drain::Drainer::Stats stats = drainer.stats();
  out.ns_per_op = std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  static_cast<double>(total);
  out.drained = stats.drained_entries;
  out.spilled_bytes = stats.spilled_bytes;
  out.chunks = stats.chunks;
  out.dropped = log.dropped();
  remove_tree(dir);
  return out;
}

std::string render_json(const std::vector<SweepRow>& rows,
                        const DrainSmoke& drain_smoke) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"abl_log_write.sweep\",\n"
      << "  \"unit\": \"ns_per_append\",\n  \"configs\": [\n";
  for (usize i = 0; i < rows.size(); ++i) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "    {\"writers\": %d, \"v1_ns_per_op\": %.3f, "
                  "\"v2_ns_per_op\": %.3f, \"speedup\": %.3f, "
                  "\"v2_wrap_ns_per_op\": %.3f, \"wrap_penalty\": %.3f}%s\n",
                  rows[i].writers, rows[i].v1_ns, rows[i].v2_ns,
                  rows[i].speedup(), rows[i].v2_wrap_ns,
                  rows[i].wrap_penalty(), i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ],\n";
  char drain_line[320];
  std::snprintf(drain_line, sizeof(drain_line),
                "  \"drain\": {\"writers\": 4, \"ns_per_op\": %.3f, "
                "\"drained_entries\": %llu, \"spilled_bytes\": %llu, "
                "\"chunks\": %llu, \"dropped\": %llu}\n",
                drain_smoke.ns_per_op,
                static_cast<unsigned long long>(drain_smoke.drained),
                static_cast<unsigned long long>(drain_smoke.spilled_bytes),
                static_cast<unsigned long long>(drain_smoke.chunks),
                static_cast<unsigned long long>(drain_smoke.dropped));
  out << drain_line << "}\n";
  return out.str();
}

// Minimal extraction of per-writer-count {writers, <key>} pairs from the
// baseline JSON — the file is machine-written by this binary, so line-based
// parsing is safe. Returns an empty map when the key is absent (older
// baselines predating a field).
std::map<int, double> parse_field(const std::string& json,
                                  const std::string& key) {
  std::map<int, double> out;
  const std::string pattern = "\"" + key + "\":";
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    int writers = 0;
    double value = 0.0;
    const char* w = std::strstr(line.c_str(), "\"writers\":");
    const char* s = std::strstr(line.c_str(), pattern.c_str());
    if (w && s && std::sscanf(w, "\"writers\": %d", &writers) == 1 &&
        std::sscanf(s + pattern.size(), "%lf", &value) == 1) {
      out[writers] = value;
    }
  }
  return out;
}

int sweep_main(const std::string& out_path, const std::string& check_path,
               u64 ops, int reps) {
  std::vector<SweepRow> rows = run_sweep(ops, reps);
  DrainSmoke drain_smoke;
  for (int r = 0; r < reps; ++r) {
    DrainSmoke d = run_drain_smoke(4, ops);
    if (d.ns_per_op > 0 &&
        (drain_smoke.ns_per_op < 0 || d.ns_per_op < drain_smoke.ns_per_op)) {
      drain_smoke = d;
    }
  }
  std::fprintf(stderr,
               "drain writers=4 ns_per_op=%.2f drained=%llu spilled=%llu "
               "chunks=%llu dropped=%llu\n",
               drain_smoke.ns_per_op,
               static_cast<unsigned long long>(drain_smoke.drained),
               static_cast<unsigned long long>(drain_smoke.spilled_bytes),
               static_cast<unsigned long long>(drain_smoke.chunks),
               static_cast<unsigned long long>(drain_smoke.dropped));
  std::string json = render_json(rows, drain_smoke);
  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::binary);
    f << json;
    if (!f) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  } else {
    std::fputs(json.c_str(), stdout);
  }
  if (check_path.empty()) return 0;

  std::ifstream f(check_path, std::ios::binary);
  std::stringstream baseline_buf;
  baseline_buf << f.rdbuf();
  std::map<int, double> baseline = parse_field(baseline_buf.str(), "speedup");
  std::map<int, double> wrap_baseline =
      parse_field(baseline_buf.str(), "wrap_penalty");
  if (baseline.empty()) {
    std::fprintf(stderr, "FAIL: no configs parsed from %s\n", check_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const SweepRow& row : rows) {
    auto it = baseline.find(row.writers);
    if (it == baseline.end()) continue;
    // The regression gate: the measured v1/v2 speedup ratio may not fall
    // more than 25% below the checked-in baseline ratio.
    double floor = it->second * 0.75;
    bool ok = row.speedup() >= floor;
    std::fprintf(stderr, "check writers=%d speedup=%.2fx baseline=%.2fx floor=%.2fx %s\n",
                 row.writers, row.speedup(), it->second, floor,
                 ok ? "OK" : "REGRESSION");
    if (!ok) ++failures;
  }
  // Acceptance floor from the format-v2 design: >=2x cheaper per probe at 8
  // concurrent writers, independent of what the baseline drifted to.
  for (const SweepRow& row : rows) {
    if (row.writers == 8 && row.speedup() < 2.0) {
      std::fprintf(stderr, "check writers=8 speedup=%.2fx < 2.0x acceptance floor\n",
                   row.speedup());
      ++failures;
    }
  }
  // Wrap-penalty gate: a flush past the wrap must cost about the same as an
  // unwrapped one (two memcpy spans). Falling back onto the per-entry modulo
  // loop shows up as a multiple, far outside the relative band and the
  // absolute ceiling.
  for (const SweepRow& row : rows) {
    double penalty = row.wrap_penalty();
    auto it = wrap_baseline.find(row.writers);
    double ceiling = it != wrap_baseline.end()
                         ? (it->second * 1.35 > 2.5 ? it->second * 1.35 : 2.5)
                         : 2.5;
    bool ok = penalty > 0 && penalty <= ceiling;
    std::fprintf(stderr,
                 "check writers=%d wrap_penalty=%.2fx ceiling=%.2fx %s\n",
                 row.writers, penalty, ceiling, ok ? "OK" : "REGRESSION");
    if (!ok) ++failures;
  }
  // Drain smoke gate: a live drainer must keep an undersized log lossless
  // (writers wait on reclaim, never discard) and actually spill to disk.
  {
    bool ok = drain_smoke.ns_per_op > 0 && drain_smoke.dropped == 0 &&
              drain_smoke.spilled_bytes > 0;
    std::fprintf(stderr, "check drain dropped=%llu spilled=%llu %s\n",
                 static_cast<unsigned long long>(drain_smoke.dropped),
                 static_cast<unsigned long long>(drain_smoke.spilled_bytes),
                 ok ? "OK" : "FAIL");
    if (!ok) ++failures;
  }
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, check_path;
  u64 ops = 400'000;
  int reps = 5;
  bool sweep = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--ops" && i + 1 < argc) {
      ops = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    }
  }
  if (sweep) return sweep_main(out_path, check_path, ops, reps);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
