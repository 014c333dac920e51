// Ablation A3 — streaming vs in-memory spill analysis (DESIGN.md §12).
//
// The streaming analyzer exists for one reason: a spill session's chunk
// stream can be arbitrarily larger than any buffer the analyzing host wants
// to dedicate, so analysis memory must be bounded by the *distinct*
// methods/edges/paths, not by the entry count. This sweep measures both
// pipelines over synthetic spill sessions of growing size and emits
// machine-readable JSON: entries/second and peak RSS for each.
//
// Every measurement forks: the child runs exactly one analysis and its
// ru_maxrss (via wait4) is that pipeline's true peak over that session —
// uncontaminated by the other pipeline, the session generator, or previous
// reps.
//
// `--sweep --out BENCH_analyze.json` writes the result; `--check
// <baseline.json>` gates the *ratios* (in-memory/streaming peak RSS, and
// streaming/in-memory throughput) against the checked-in baseline with the
// same 25% band the log-write gate uses — ratios, not absolute numbers, so
// the gate holds across machine speeds. Acceptance floor independent of
// baseline drift: at the largest size the in-memory pipeline must peak at
// >= 2x the streaming pipeline's RSS.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"

namespace {

using namespace teeperf;

// Synthetic spill session: 2 shards, one thread each, 3-deep nested calls
// over a 16-method rotation — counters and cursors continuous across
// chunks, exactly the shape the drainer persists. Distinct methods/edges/
// paths stay constant while the entry count grows, which is the property
// the streaming pipeline's memory bound rides on.
constexpr u32 kShards = 2;
constexpr u64 kChunkEntriesPerShard = 2048;

bool write_session(const std::string& prefix, u64 total_entries) {
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  u64 per_shard = total_entries / kShards;
  u32 chunks = static_cast<u32>(
      (per_shard + kChunkEntriesPerShard - 1) / kChunkEntriesPerShard);
  u64 counter[kShards] = {1, 1};
  u64 phase[kShards] = {0, 0};
  u64 cycle[kShards] = {0, 0};
  for (u32 seq = 0; seq < chunks; ++seq) {
    std::vector<drain::ShardWindow> windows(kShards);
    for (u32 s = 0; s < kShards; ++s) {
      u64 start = static_cast<u64>(seq) * kChunkEntriesPerShard;
      u64 n = std::min(kChunkEntriesPerShard, per_shard - start);
      windows[s].start = start;
      windows[s].entries.reserve(n);
      for (u64 i = 0; i < n; ++i) {
        u64 level = phase[s] < 3 ? phase[s] : 5 - phase[s];
        LogEntry e{};
        e.kind_and_counter = LogEntry::pack(
            phase[s] < 3 ? EventKind::kCall : EventKind::kReturn, counter[s]++);
        e.addr = 0x100 * (level + 1) + cycle[s];
        e.tid = s;
        windows[s].entries.push_back(e);
        if (++phase[s] == 6) {
          phase[s] = 0;
          cycle[s] = (cycle[s] + 1) % 16;
        }
      }
    }
    if (!write_file(drain::chunk_path(prefix, seq),
                    drain::serialize_chunk(session, windows, seq))) {
      return false;
    }
  }
  return true;
}

// The aggregate of a table's rows: one path-tree node per distinct path,
// each row recorded at its node (parents precede children).
analyzer::MergeableProfile rollup(const analyzer::InvocationTable& t) {
  analyzer::SessionTree st{{}, t.symbols(), t.ns_per_tick(), t.recon_stats(),
                           t.thread_count()};
  const std::vector<analyzer::Invocation>& rows = t.invocations();
  std::vector<u32> node(rows.size());
  for (usize i = 0; i < rows.size(); ++i) {
    const analyzer::Invocation& r = rows[i];
    node[i] = st.tree.child(r.parent < 0 ? 0 : node[static_cast<usize>(r.parent)],
                            r.method);
    st.tree.nodes()[node[i]].agg.record(r.inclusive(), r.exclusive());
  }
  return analyzer::MergeableProfile::from_tree(st);
}

// One forked measurement. The child runs the named pipeline once and pipes
// back its wall time and consumed-entry count; the parent reads the child's
// peak RSS from wait4. Returns false if the child failed or disagreed on
// the entry count.
struct Measurement {
  double entries_per_sec = 0.0;
  double peak_rss_mb = 0.0;
};

bool measure(const std::string& prefix, u64 total_entries, bool streaming,
             Measurement* out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    auto t0 = std::chrono::steady_clock::now();
    u64 entries = 0;
    if (streaming) {
      auto m = analyzer::StreamAnalyzer::analyze_spill(prefix);
      if (m) entries = m->stats.entries;
    } else {
      if (auto t = analyzer::InvocationTable::load(prefix)) {
        // The same fold with the invocation sink: collect every row, then
        // roll the rows up into the same mergeable aggregate.
        entries = rollup(*t).stats.entries;
      }
    }
    auto t1 = std::chrono::steady_clock::now();
    double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    char buf[64];
    int len = std::snprintf(buf, sizeof(buf), "%.1f %llu", ns,
                            static_cast<unsigned long long>(entries));
    ssize_t written = write(fds[1], buf, static_cast<usize>(len));
    close(fds[1]);
    _exit(written == len ? 0 : 1);
  }
  close(fds[1]);
  char buf[64] = {0};
  ssize_t n = read(fds[0], buf, sizeof(buf) - 1);
  close(fds[0]);
  rusage ru{};
  int status = 0;
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || n <= 0) return false;
  double ns = 0.0;
  unsigned long long entries = 0;
  if (std::sscanf(buf, "%lf %llu", &ns, &entries) != 2) return false;
  if (entries != total_entries || ns <= 0.0) return false;
  out->entries_per_sec = static_cast<double>(total_entries) / (ns / 1e9);
  out->peak_rss_mb =
      static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KB on Linux
  return true;
}

struct SweepRow {
  u64 entries;
  double stream_eps = 0.0;
  double inmem_eps = 0.0;
  double stream_peak_mb = 1e30;
  double inmem_peak_mb = 1e30;
  // In-memory peak over streaming peak: how many times smaller the
  // streaming pipeline runs. The regression being gated is this collapsing
  // toward 1 (streaming starting to materialize the session).
  double rss_ratio() const {
    return stream_peak_mb > 0 ? inmem_peak_mb / stream_peak_mb : 0.0;
  }
  // Streaming throughput relative to in-memory: bounded memory must not be
  // bought with a pathological slowdown.
  double eps_ratio() const {
    return inmem_eps > 0 ? stream_eps / inmem_eps : 0.0;
  }
};

std::vector<SweepRow> run_sweep(int reps) {
  std::string dir = make_temp_dir("teeperf_bench_analyze_");
  std::vector<SweepRow> rows;
  for (u64 entries : {u64{1} << 16, u64{1} << 18, u64{1} << 20}) {
    SweepRow row{entries};
    std::string prefix = dir + "/session";
    if (!write_session(prefix, entries)) break;
    for (int r = 0; r < reps; ++r) {
      Measurement sm, im;
      // Best-of-reps, per direction of the noise: interference only lowers
      // throughput (keep the max) and only raises RSS (keep the min).
      if (measure(prefix, entries, /*streaming=*/true, &sm)) {
        if (sm.entries_per_sec > row.stream_eps) row.stream_eps = sm.entries_per_sec;
        if (sm.peak_rss_mb < row.stream_peak_mb) row.stream_peak_mb = sm.peak_rss_mb;
      }
      if (measure(prefix, entries, /*streaming=*/false, &im)) {
        if (im.entries_per_sec > row.inmem_eps) row.inmem_eps = im.entries_per_sec;
        if (im.peak_rss_mb < row.inmem_peak_mb) row.inmem_peak_mb = im.peak_rss_mb;
      }
    }
    for (u32 seq = 0;; ++seq) {
      std::string p = drain::chunk_path(prefix, seq);
      if (!file_exists(p)) break;
      std::remove(p.c_str());
    }
    std::fprintf(stderr,
                 "sweep entries=%llu stream=%.0f/s (%.1f MB peak) "
                 "inmem=%.0f/s (%.1f MB peak) rss_ratio=%.2fx eps_ratio=%.2fx\n",
                 static_cast<unsigned long long>(row.entries), row.stream_eps,
                 row.stream_peak_mb, row.inmem_eps, row.inmem_peak_mb,
                 row.rss_ratio(), row.eps_ratio());
    rows.push_back(row);
  }
  remove_tree(dir);
  return rows;
}

std::string render_json(const std::vector<SweepRow>& rows) {
  std::ostringstream out;
  out << "{\n  \"benchmark\": \"abl_analyze.sweep\",\n"
      << "  \"unit\": \"entries_per_sec\",\n  \"configs\": [\n";
  for (usize i = 0; i < rows.size(); ++i) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "    {\"entries\": %llu, \"stream_eps\": %.0f, "
                  "\"inmem_eps\": %.0f, \"stream_peak_mb\": %.1f, "
                  "\"inmem_peak_mb\": %.1f, \"rss_ratio\": %.3f, "
                  "\"eps_ratio\": %.3f}%s\n",
                  static_cast<unsigned long long>(rows[i].entries),
                  rows[i].stream_eps, rows[i].inmem_eps, rows[i].stream_peak_mb,
                  rows[i].inmem_peak_mb, rows[i].rss_ratio(),
                  rows[i].eps_ratio(), i + 1 < rows.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  return out.str();
}

// Per-size {entries, <key>} pairs from the machine-written baseline JSON —
// the same line-based extraction the log-write gate uses.
std::map<u64, double> parse_field(const std::string& json,
                                  const std::string& key) {
  std::map<u64, double> out;
  const std::string pattern = "\"" + key + "\":";
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long entries = 0;
    double value = 0.0;
    const char* e = std::strstr(line.c_str(), "\"entries\":");
    const char* s = std::strstr(line.c_str(), pattern.c_str());
    if (e && s && std::sscanf(e, "\"entries\": %llu", &entries) == 1 &&
        std::sscanf(s + pattern.size(), "%lf", &value) == 1) {
      out[entries] = value;
    }
  }
  return out;
}

int sweep_main(const std::string& out_path, const std::string& check_path,
               int reps) {
  std::vector<SweepRow> rows = run_sweep(reps);
  if (rows.empty()) {
    std::fprintf(stderr, "FAIL: no sweep rows measured\n");
    return 1;
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
  if (check_path.empty()) return 0;

  std::ifstream f(check_path, std::ios::binary);
  std::stringstream baseline_buf;
  baseline_buf << f.rdbuf();
  std::map<u64, double> rss_baseline = parse_field(baseline_buf.str(), "rss_ratio");
  std::map<u64, double> eps_baseline = parse_field(baseline_buf.str(), "eps_ratio");
  if (rss_baseline.empty()) {
    std::fprintf(stderr, "FAIL: no configs parsed from %s\n", check_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const SweepRow& row : rows) {
    // The regression gates: neither ratio may fall more than 25% below its
    // checked-in baseline.
    auto rit = rss_baseline.find(row.entries);
    if (rit != rss_baseline.end()) {
      double floor = rit->second * 0.75;
      bool ok = row.rss_ratio() >= floor;
      std::fprintf(stderr,
                   "check entries=%llu rss_ratio=%.2fx baseline=%.2fx "
                   "floor=%.2fx %s\n",
                   static_cast<unsigned long long>(row.entries),
                   row.rss_ratio(), rit->second, floor,
                   ok ? "OK" : "REGRESSION");
      if (!ok) ++failures;
    }
    auto eit = eps_baseline.find(row.entries);
    if (eit != eps_baseline.end()) {
      double floor = eit->second * 0.75;
      bool ok = row.eps_ratio() >= floor;
      std::fprintf(stderr,
                   "check entries=%llu eps_ratio=%.2fx baseline=%.2fx "
                   "floor=%.2fx %s\n",
                   static_cast<unsigned long long>(row.entries),
                   row.eps_ratio(), eit->second, floor,
                   ok ? "OK" : "REGRESSION");
      if (!ok) ++failures;
    }
  }
  // Acceptance floor independent of baseline drift: at the largest session
  // the in-memory pipeline must peak at >= 2x the streaming pipeline's RSS —
  // the bounded-memory property the subsystem exists for.
  const SweepRow& largest = rows.back();
  if (largest.rss_ratio() < 2.0) {
    std::fprintf(stderr,
                 "check entries=%llu rss_ratio=%.2fx < 2.0x acceptance floor\n",
                 static_cast<unsigned long long>(largest.entries),
                 largest.rss_ratio());
    ++failures;
  }
  return failures ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path, check_path;
  int reps = 3;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--sweep") {
      // default mode; flag kept for symmetry with abl_log_write
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--check" && i + 1 < argc) {
      check_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: abl_analyze [--sweep] [--out file.json] "
                   "[--check baseline.json] [--reps N]\n");
      return 2;
    }
  }
  return sweep_main(out_path, check_path, reps);
}
