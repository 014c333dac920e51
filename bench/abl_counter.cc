// Ablation A2 — the counter source (§II-B design choice).
//
// The paper's portable time source is a software counter (a thread
// incrementing a word in the log header); hardware counters are used when
// the recorder can expose them. This microbenchmark measures the read cost
// of each source and reports the software counter's tick rate and the
// effective resolution of each (distinct values in a tight read loop).
//
// `--sweep [--out F] [--check BASELINE]` switches to the CI regression
// mode (TESTING.md "Bench regression"): probe-read cost with the counter
// service's single thread vs 2 and 3 replicas behind the same header word.
// The replicated/single *ratio* is the gate — the whole point of
// primary-mirroring is that replication must not change what the probe
// pays, and a ratio blow-up means replica slots started sharing the
// header's cache line again.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/shm.h"
#include "common/spin.h"
#include "core/counter.h"
#include "core/log_format.h"

namespace {

using namespace teeperf;

// A log of `replicas` counter replicas (0 or 1: the single counter thread)
// in anonymous shared memory.
struct CounterLog {
  SharedMemoryRegion shm;
  ProfileLog log;
  explicit CounterLog(u32 replicas = 0) {
    if (shm.create_anonymous(
            ProfileLog::bytes_for_replicated(1024, 1, replicas))) {
      log.init(shm.data(), shm.size(), 42, log_flags::kActive, 1, replicas);
    }
  }
};

CounterLog g_log;
const LogHeader* g_header = g_log.log.header();

void BM_ReadSoftwareCounter(benchmark::State& state) {
  // A live counter thread mutates the header word while we read it —
  // the realistic cache-coherence cost, not a stale-line fantasy.
  CounterService counter(&g_log.log, CounterMode::kSoftware);
  counter.start();
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_counter(CounterMode::kSoftware, g_header));
  }
  counter.stop();
  std::optional<double> npt = counter.ns_per_tick();
  state.counters["ticks_per_sec"] = npt ? 1e9 / *npt : 0.0;
}
BENCHMARK(BM_ReadSoftwareCounter);

void BM_ReadTsc(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_counter(CounterMode::kTsc, g_header));
  }
}
BENCHMARK(BM_ReadTsc);

void BM_ReadSteadyClock(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(read_counter(CounterMode::kSteadyClock, g_header));
  }
}
BENCHMARK(BM_ReadSteadyClock);

// Resolution: how many of 10k consecutive reads yield distinct values.
// A usable profiling counter should change nearly every read.
void BM_Resolution(benchmark::State& state) {
  CounterMode mode = static_cast<CounterMode>(state.range(0));
  CounterService counter(&g_log.log, CounterMode::kSoftware);
  if (mode == CounterMode::kSoftware) counter.start();
  double distinct_frac = 0;
  for (auto _ : state) {
    u64 prev = read_counter(mode, g_header);
    u64 distinct = 0;
    constexpr int kReads = 10'000;
    for (int i = 0; i < kReads; ++i) {
      u64 now = read_counter(mode, g_header);
      if (now != prev) ++distinct;
      prev = now;
    }
    distinct_frac = static_cast<double>(distinct) / kReads;
  }
  if (mode == CounterMode::kSoftware) counter.stop();
  state.counters["distinct_frac"] = distinct_frac;
  state.SetLabel(counter_mode_name(mode));
}
BENCHMARK(BM_Resolution)
    ->Arg(static_cast<int>(CounterMode::kSoftware))
    ->Arg(static_cast<int>(CounterMode::kTsc))
    ->Arg(static_cast<int>(CounterMode::kSteadyClock));

// --- --sweep mode: single vs replicated probe-read cost ---------------------

struct CounterRow {
  u32 replicas = 0;      // 0 = the single counter thread
  double ns_per_read = 0;
  double ticks = 0;      // header-word progress during the measurement
  double single_ns = 0;  // the replicas==0 row's cost, for the ratio
  double ratio() const {
    return single_ns > 0 ? ns_per_read / single_ns : 0.0;
  }
};

// Probe-read cost against a live mutating header word: `reads` relaxed
// loads while either the single counter thread or a full replica set + the
// detector runs behind it. Returns the best (min) of `reps` measurements so
// one descheduled rep doesn't read as a regression.
double measure_reads(const LogHeader* header, u64 reads) {
  u64 sink = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (u64 i = 0; i < reads; ++i) {
    sink += read_counter(CounterMode::kSoftware, header);
  }
  auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(reads);
}

CounterRow run_counter(u32 replicas, u64 reads, int reps) {
  CounterRow row;
  row.replicas = replicas;
  CounterLog l(replicas);
  if (!l.log.valid()) return row;
  CounterService counter(&l.log, CounterMode::kSoftware);
  counter.start();
  spin_for_ns(2'000'000);  // warm-up: let the counter threads get scheduled
  const LogHeader* header = l.log.header();
  u64 c0 = header->counter.load(std::memory_order_relaxed);
  double best = -1;
  for (int r = 0; r < reps; ++r) {
    double ns = measure_reads(header, reads);
    if (best < 0 || ns < best) best = ns;
  }
  row.ticks = static_cast<double>(
      header->counter.load(std::memory_order_relaxed) - c0);
  counter.stop();
  row.ns_per_read = best;
  return row;
}

std::string render_json(const std::vector<CounterRow>& rows) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"abl_counter.sweep\",\n"
      << "  \"unit\": \"ns_per_read\",\n  \"configs\": [\n";
  for (usize i = 0; i < rows.size(); ++i) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"replicas\": %u, \"ns_per_read\": %.3f, "
                  "\"ratio\": %.3f}%s\n",
                  rows[i].replicas, rows[i].ns_per_read, rows[i].ratio(),
                  i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  return out.str();
}

// Per-replica-count {replicas, <key>} pairs from the machine-written
// baseline JSON (same line-based idiom as abl_log_write's parse_field).
std::map<u32, double> parse_field(const std::string& json,
                                  const std::string& key) {
  std::map<u32, double> out;
  const std::string pattern = "\"" + key + "\":";
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    unsigned replicas = 0;
    double value = 0.0;
    const char* r = std::strstr(line.c_str(), "\"replicas\":");
    const char* s = std::strstr(line.c_str(), pattern.c_str());
    if (r && s && std::sscanf(r, "\"replicas\": %u", &replicas) == 1 &&
        std::sscanf(s + pattern.size(), "%lf", &value) == 1) {
      out[replicas] = value;
    }
  }
  return out;
}

int sweep_main(const std::string& out_path, const std::string& check_path,
               u64 reads, int reps) {
  std::vector<CounterRow> rows;
  rows.push_back(run_counter(0, reads, reps));
  for (u32 replicas : {2u, 3u}) {
    CounterRow row = run_counter(replicas, reads, reps);
    row.single_ns = rows[0].ns_per_read;
    rows.push_back(row);
  }
  for (const CounterRow& row : rows) {
    std::fprintf(stderr, "replicas=%u ns_per_read=%.2f ratio=%.2fx ticks=%.0f\n",
                 row.replicas, row.ns_per_read, row.ratio(), row.ticks);
  }
  std::string json = render_json(rows);
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

  int failures = 0;
  // Liveness sanity regardless of baseline: each configuration's counter
  // actually advanced the header word during the measurement.
  for (const CounterRow& row : rows) {
    if (!(row.ns_per_read > 0) || !(row.ticks > 0)) {
      std::fprintf(stderr, "check replicas=%u made no progress FAIL\n",
                   row.replicas);
      ++failures;
    }
  }
  if (check_path.empty()) return failures ? 1 : 0;

  std::ifstream f(check_path, std::ios::binary);
  std::stringstream baseline_buf;
  baseline_buf << f.rdbuf();
  std::map<u32, double> baseline = parse_field(baseline_buf.str(), "ratio");
  if (baseline.empty()) {
    std::fprintf(stderr, "FAIL: no configs parsed from %s\n",
                 check_path.c_str());
    return 1;
  }
  // The regression gate: the replicated/single probe-read cost ratio may
  // not rise more than 35% above the checked-in baseline ratio, and never
  // past an absolute 2.5x ceiling floor (single-core runners jitter; a
  // false-shared header line shows up as a large multiple, far outside
  // both bands).
  for (const CounterRow& row : rows) {
    if (row.replicas == 0) continue;
    auto it = baseline.find(row.replicas);
    double base = it != baseline.end() ? it->second : 1.0;
    double ceiling = base * 1.35 > 2.5 ? base * 1.35 : 2.5;
    double ratio = row.ratio();
    bool ok = ratio > 0 && ratio <= ceiling;
    std::fprintf(stderr,
                 "check replicas=%u ratio=%.2fx baseline=%.2fx ceiling=%.2fx %s\n",
                 row.replicas, ratio, base, ceiling,
                 ok ? "OK" : "REGRESSION");
    if (!ok) ++failures;
  }
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, check_path;
  u64 reads = 2'000'000;
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
    } else if (arg == "--reads" && i + 1 < argc) {
      reads = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    }
  }
  if (sweep) return sweep_main(out_path, check_path, reads, reps);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
