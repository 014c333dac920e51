// Differential fuzzer for the record→analyze pipeline.
//
// The analyzer's contract (§II-B) is that it never trusts the log: dumps
// may arrive truncated, bit-flipped, or actively hostile, and the loader
// must reject or degrade — never crash, never read out of bounds. This
// tool enforces that contract mechanically:
//
//   1. Mutation fuzzing: every corpus file is mutated (bit flips, torn
//      tails, header scrambles, entry splices, zero chunks, growth) and fed
//      through the full analysis surface — the bytes parsed and folded in
//      memory (parse_dump), the walk of the same bytes as a `.log` file
//      (read in blocks, held equal to the in-memory fold), the invocation
//      rows, reports, flame graph rendering, validation — inside a forked
//      child, so a crash or sanitizer abort
//      is contained, detected, minimized, and saved to the crashers
//      directory as a regression input.
//
//   2. Differential checking: a benign mutation — any reordering of
//      entries that preserves per-thread order, exactly the freedom the
//      lock-free multi-writer log has (§II-C) — must not change analysis
//      results. Each corpus file is reordered with seeded interleavings
//      and the full stats signature (method stats, folded stacks,
//      reconstruction counters) is compared against the original.
//
// Everything derives from --seed, so any failure replays exactly.
//
//   teeperf_fuzz --corpus <dir> [--iters N] [--seed S] [--crashers <dir>]
//   teeperf_fuzz --gen --corpus <dir>     # write the seed corpus and exit
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "core/log_format.h"
#include "flamegraph/flamegraph.h"

using namespace teeperf;

namespace {

// ------------------------------------------------------------ serializing --

std::string serialize_log(const std::vector<LogEntry>& entries, u64 max_entries,
                          u64 tail, u64 flags, double ns_per_tick) {
  LogHeader h;
  h.magic = kLogMagic;
  h.version = kLogVersion;
  h.pid = 4242;
  h.max_entries = max_entries;
  h.flags.store(flags, std::memory_order_relaxed);
  h.tail.store(tail, std::memory_order_relaxed);
  h.ns_per_tick = ns_per_tick;
  std::string out(reinterpret_cast<const char*>(&h), sizeof(LogHeader));
  out.append(reinterpret_cast<const char*>(entries.data()),
             entries.size() * sizeof(LogEntry));
  return out;
}

// v2 (sharded) serializer. `windows` become back-to-back segments with a
// directory in front, the compact form Recorder::dump emits. A nonzero
// `tail_override` for a shard lets regression inputs lie about how much was
// written (hostile-directory cases).
struct ShardSpec {
  std::vector<LogEntry> entries;
  u64 offset_override = ~0ull;  // ~0 = cumulative (honest)
  u64 capacity_override = ~0ull;
  u64 tail_override = ~0ull;
};

std::string serialize_log_v2(const std::vector<ShardSpec>& shards, u64 flags,
                             double ns_per_tick) {
  u64 total = 0;
  for (const auto& s : shards) total += s.entries.size();
  LogHeader h;
  h.magic = kLogMagic;
  h.version = kLogVersionSharded;
  h.shard_count = static_cast<u32>(shards.size());
  h.pid = 4242;
  h.max_entries = total;
  h.flags.store(flags, std::memory_order_relaxed);
  h.ns_per_tick = ns_per_tick;
  std::string out(reinterpret_cast<const char*>(&h), sizeof(LogHeader));
  u64 cursor = 0;
  for (const auto& s : shards) {
    LogShard d;
    d.entry_offset = s.offset_override != ~0ull ? s.offset_override : cursor;
    d.capacity =
        s.capacity_override != ~0ull ? s.capacity_override : s.entries.size();
    d.tail.store(s.tail_override != ~0ull ? s.tail_override : s.entries.size(),
                 std::memory_order_relaxed);
    out.append(reinterpret_cast<const char*>(&d), sizeof(LogShard));
    cursor += s.entries.size();
  }
  for (const auto& s : shards) {
    out.append(reinterpret_cast<const char*>(s.entries.data()),
               s.entries.size() * sizeof(LogEntry));
  }
  return out;
}

LogEntry make_entry(EventKind kind, u64 addr, u64 tid, u64 counter) {
  LogEntry e;
  e.kind_and_counter = LogEntry::pack(kind, counter);
  e.addr = addr;
  e.tid = tid;
  return e;
}

// The seed corpus: one file per interesting shape. Deterministic, so a
// regenerated corpus is byte-identical and diffs stay reviewable.
std::vector<std::pair<std::string, std::string>> build_seed_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  u64 flags = log_flags::kActive | log_flags::kRecordCalls |
              log_flags::kRecordReturns | log_flags::kMultithread;

  {  // Nested single-thread calls, balanced.
    std::vector<LogEntry> es;
    u64 c = 100;
    for (u64 rep = 0; rep < 8; ++rep) {
      es.push_back(make_entry(EventKind::kCall, 0x1000, 0, c += 10));
      es.push_back(make_entry(EventKind::kCall, 0x2000, 0, c += 10));
      es.push_back(make_entry(EventKind::kCall, 0x3000, 0, c += 10));
      es.push_back(make_entry(EventKind::kReturn, 0x3000, 0, c += 10));
      es.push_back(make_entry(EventKind::kReturn, 0x2000, 0, c += 10));
      es.push_back(make_entry(EventKind::kCall, 0x2000, 0, c += 10));
      es.push_back(make_entry(EventKind::kReturn, 0x2000, 0, c += 10));
      es.push_back(make_entry(EventKind::kReturn, 0x1000, 0, c += 10));
    }
    corpus.emplace_back("seed_nested.log",
                        serialize_log(es, 256, es.size(), flags, 2.5));
  }
  {  // Four threads interleaved round-robin.
    std::vector<LogEntry> es;
    u64 c = 1000;
    for (u64 rep = 0; rep < 6; ++rep) {
      for (u64 tid = 0; tid < 4; ++tid) {
        es.push_back(make_entry(EventKind::kCall, 0x100 * (tid + 1), tid, c += 3));
      }
      for (u64 tid = 0; tid < 4; ++tid) {
        es.push_back(make_entry(EventKind::kCall, 0xAA00 + tid, tid, c += 3));
        es.push_back(make_entry(EventKind::kReturn, 0xAA00 + tid, tid, c += 3));
      }
      for (u64 tid = 0; tid < 4; ++tid) {
        es.push_back(
            make_entry(EventKind::kReturn, 0x100 * (tid + 1), tid, c += 3));
      }
    }
    corpus.emplace_back("seed_threads.log",
                        serialize_log(es, 512, es.size(), flags, 1.0));
  }
  {  // Torn tail: tail advanced past two all-zero (tombstone) slots.
    std::vector<LogEntry> es;
    u64 c = 50;
    es.push_back(make_entry(EventKind::kCall, 0x7000, 0, c += 5));
    es.push_back(make_entry(EventKind::kCall, 0x7100, 0, c += 5));
    es.push_back(make_entry(EventKind::kReturn, 0x7100, 0, c += 5));
    es.push_back(LogEntry{});
    es.push_back(LogEntry{});
    corpus.emplace_back("seed_torn_tail.log",
                        serialize_log(es, 64, es.size(), flags, 0.8));
  }
  {  // Pathological: stray + mismatched returns, zero addresses, backjumps.
    std::vector<LogEntry> es;
    es.push_back(make_entry(EventKind::kReturn, 0x9000, 1, 500));  // stray
    es.push_back(make_entry(EventKind::kCall, 0x9000, 1, 510));
    es.push_back(make_entry(EventKind::kReturn, 0x9999, 1, 490));  // mismatch + backjump
    es.push_back(make_entry(EventKind::kCall, 0, 2, 600));         // null addr
    es.push_back(make_entry(EventKind::kCall, 0x9100, 1, 620));    // left open
    corpus.emplace_back("seed_defects.log",
                        serialize_log(es, 32, es.size(), flags, 1.0));
  }
  {  // Deep recursion: one method 40 frames deep.
    std::vector<LogEntry> es;
    u64 c = 10;
    for (int i = 0; i < 40; ++i)
      es.push_back(make_entry(EventKind::kCall, 0x4000, 0, c += 2));
    for (int i = 0; i < 40; ++i)
      es.push_back(make_entry(EventKind::kReturn, 0x4000, 0, c += 2));
    corpus.emplace_back("seed_recursion.log",
                        serialize_log(es, 128, es.size(), flags, 1.0));
  }
  {  // Empty log: header only, tail 0.
    corpus.emplace_back("seed_empty.log",
                        serialize_log({}, 16, 0, flags, 1.0));
  }
  {  // Regression: max_entries/tail near 2^63 — the u64 products that used
     // to overflow size checks in ProfileLog::adopt. The loader must clamp
     // to the bytes actually present.
    std::vector<LogEntry> es;
    es.push_back(make_entry(EventKind::kCall, 0x5000, 0, 10));
    es.push_back(make_entry(EventKind::kReturn, 0x5000, 0, 20));
    corpus.emplace_back(
        "regression_huge_header.log",
        serialize_log(es, 1ull << 61, ~0ull >> 1, flags, 1.0));
  }
  {  // Regression: non-finite ns_per_tick from a corrupt header must be
     // discarded, not propagated into every report as NaN.
    std::vector<LogEntry> es;
    es.push_back(make_entry(EventKind::kCall, 0x6000, 0, 10));
    es.push_back(make_entry(EventKind::kReturn, 0x6000, 0, 30));
    corpus.emplace_back(
        "regression_nan_tick.log",
        serialize_log(es, 16, es.size(), flags,
                      std::numeric_limits<double>::quiet_NaN()));
  }
  {  // v2 sharded: four threads spread over four shards (tid % 4), each
     // shard a balanced nested workload — the compact form a sharded
     // recorder dumps.
    std::vector<ShardSpec> shards(4);
    for (u64 tid = 0; tid < 4; ++tid) {
      u64 c = 100 * (tid + 1);
      auto& es = shards[tid].entries;
      for (u64 rep = 0; rep < 4; ++rep) {
        es.push_back(make_entry(EventKind::kCall, 0x100 * (tid + 1), tid, c += 7));
        es.push_back(make_entry(EventKind::kCall, 0xBB00 + tid, tid, c += 7));
        es.push_back(make_entry(EventKind::kReturn, 0xBB00 + tid, tid, c += 7));
        es.push_back(make_entry(EventKind::kReturn, 0x100 * (tid + 1), tid, c += 7));
      }
    }
    corpus.emplace_back("seed_v2_shards.log",
                        serialize_log_v2(shards, flags, 1.5));
  }
  {  // v2 torn batch: a batched writer died after reserving a whole flush —
     // shard 1's window ends in a run of tombstones the analyzer must skip
     // and count, while shard 0 stays clean.
    std::vector<ShardSpec> shards(2);
    u64 c = 40;
    auto& clean = shards[0].entries;
    clean.push_back(make_entry(EventKind::kCall, 0x7000, 0, c += 5));
    clean.push_back(make_entry(EventKind::kReturn, 0x7000, 0, c += 5));
    auto& torn = shards[1].entries;
    torn.push_back(make_entry(EventKind::kCall, 0x7100, 1, c += 5));
    torn.push_back(make_entry(EventKind::kReturn, 0x7100, 1, c += 5));
    for (int i = 0; i < 4; ++i) torn.push_back(LogEntry{});
    corpus.emplace_back("seed_v2_torn_batch.log",
                        serialize_log_v2(shards, flags, 0.8));
  }
  {  // Regression: a hostile v2 directory — offsets past the file, a
     // capacity/tail pair chosen so offset + capacity wraps u64. The loader
     // must clamp every window to the bytes actually present.
    std::vector<ShardSpec> shards(3);
    shards[0].entries.push_back(make_entry(EventKind::kCall, 0x8000, 0, 10));
    shards[0].entries.push_back(make_entry(EventKind::kReturn, 0x8000, 0, 20));
    shards[1].offset_override = 1ull << 60;  // far past the file
    shards[1].capacity_override = 1ull << 20;
    shards[1].tail_override = 1ull << 20;
    shards[2].offset_override = ~0ull - 8;   // offset + capacity wraps u64
    shards[2].capacity_override = 64;
    shards[2].tail_override = 64;
    corpus.emplace_back("regression_v2_bad_directory.log",
                        serialize_log_v2(shards, flags, 1.0));
  }
  {  // Regression: overlapping full-size windows with saturated tails — the
     // copy-budget check must stop the loader from multiplying a small file
     // into an unbounded allocation.
    std::vector<ShardSpec> shards(4);
    for (u64 tid = 0; tid < 4; ++tid) {
      auto& es = shards[tid].entries;
      es.push_back(make_entry(EventKind::kCall, 0x9000 + tid, tid, 10 + tid));
      es.push_back(make_entry(EventKind::kReturn, 0x9000 + tid, tid, 20 + tid));
    }
    for (u64 s = 0; s < 4; ++s) {
      shards[s].offset_override = 0;      // every window claims the whole file
      shards[s].capacity_override = ~0ull >> 1;
      shards[s].tail_override = ~0ull >> 1;
    }
    corpus.emplace_back("regression_v2_overlap.log",
                        serialize_log_v2(shards, flags, 1.0));
  }
  return corpus;
}

// `bytes` parsed in memory (parse_dump), stitched as one dump and folded:
// the in-memory twin of walking the same bytes as a `.log` file. nullopt
// when parse_dump rejects them.
std::optional<analyzer::SessionTree> fold_bytes(const std::string& bytes) {
  auto dump = analyzer::parse_dump(bytes);
  if (!dump) return std::nullopt;
  analyzer::SpillStitcher one;  // a single dump: nothing to deduplicate
  std::vector<analyzer::ShardSpan> spans;
  one.absorb(*dump, &spans);
  analyzer::StreamAnalyzer sa;
  for (const analyzer::ShardSpan& sp : spans) sa.feed(sp.shard, sp.entries, sp.n);
  sa.set_ns_per_tick(dump->layout.ns_per_tick);
  return sa.finish_tree();
}

// `.mprof` seed inputs: the mergeable-profile loader joins the same
// differential fuzz loop as the dump loader. Derived from the dump seeds
// above (via the in-memory pipeline), so they stay deterministic and cover
// realistic shapes: nested stacks, multi-thread, defects, a merged pair,
// and the empty aggregate (the merge identity).
std::vector<std::pair<std::string, std::string>> build_mprof_seed_corpus() {
  std::vector<std::pair<std::string, std::string>> corpus;
  auto dumps = build_seed_corpus();
  auto mprof_of = [&](const char* dump_name) {
    for (const auto& [name, bytes] : dumps) {
      if (name == dump_name) {
        return analyzer::MergeableProfile::from_tree(*fold_bytes(bytes)).save();
      }
    }
    return std::string();
  };
  corpus.emplace_back("seed_nested.mprof", mprof_of("seed_nested.log"));
  corpus.emplace_back("seed_threads.mprof", mprof_of("seed_threads.log"));
  corpus.emplace_back("seed_defects.mprof", mprof_of("seed_defects.log"));
  corpus.emplace_back("seed_empty.mprof",
                      analyzer::MergeableProfile{}.save());
  {
    auto a = analyzer::MergeableProfile::load_bytes(
        mprof_of("seed_recursion.log"));
    auto b = analyzer::MergeableProfile::load_bytes(
        mprof_of("seed_v2_shards.log"));
    a->merge(*b);
    corpus.emplace_back("seed_merged_pair.mprof", a->save());
  }
  return corpus;
}

// --------------------------------------------------------------- analysis --

// A stats signature that must be invariant under benign mutations: the
// aggregate's methods and folded stacks (both name-sorted) and the
// reconstruction health.
std::string signature(const analyzer::SessionTree& t) {
  analyzer::MergeableProfile m = analyzer::MergeableProfile::from_tree(t);
  std::string out;
  for (const auto& [name, s] : m.methods) {
    out += str_format("m %s n=%llu inc=%llu exc=%llu min=%llu max=%llu\n",
                      name.c_str(), static_cast<unsigned long long>(s.count),
                      static_cast<unsigned long long>(s.inclusive_total),
                      static_cast<unsigned long long>(s.exclusive_total),
                      static_cast<unsigned long long>(s.min_inclusive),
                      static_cast<unsigned long long>(s.max_inclusive));
  }
  for (const auto& [path, ticks] : m.stacks) {
    out += str_format("f %s %llu\n", path.c_str(),
                      static_cast<unsigned long long>(ticks));
  }
  const auto& r = t.recon;
  out += str_format(
      "r stray=%llu mis=%llu unw=%llu inc=%llu tomb=%llu threads=%llu\n",
      static_cast<unsigned long long>(r.stray_returns),
      static_cast<unsigned long long>(r.mismatched_returns),
      static_cast<unsigned long long>(r.unwound_frames),
      static_cast<unsigned long long>(r.incomplete),
      static_cast<unsigned long long>(r.tombstones),
      static_cast<unsigned long long>(t.thread_count));
  return out;
}

// The full analysis surface a hostile dump can reach. Runs inside a forked
// child during fuzzing, so crashes and sanitizer aborts are contained.
void exercise(const std::string& bytes) {
  // The mergeable-profile surface: hostile `.mprof` bytes must be rejected
  // or survive the full aggregate API — including another save/load cycle
  // and self-merge (the operations a fleet rollup performs).
  if (auto m = analyzer::MergeableProfile::load_bytes(bytes)) {
    m->folded();
    m->total_exclusive();
    analyzer::mprof_summary(*m);
    analyzer::method_report(*m);
    analyzer::call_graph_report(*m);
    analyzer::gprof_flat_report(*m);
    analyzer::hottest_report(*m);
    analyzer::diff_report(*m, *m);
    flamegraph::render_profile_svg(*m);
    analyzer::MergeableProfile::load_bytes(m->save());
    analyzer::MergeableProfile acc;
    acc.merge(*m);
    acc.merge(*m);
    acc.save();
  }

  auto parsed = fold_bytes(bytes);

  // The same bytes as a `.log` dump on disk, walked the way
  // teeperf_analyze reads one: laid out from its header and directory and
  // read in blocks. It must accept what parse_dump accepts and analyze to
  // the same signature; a divergence aborts like a crash.
  std::string prefix = (std::filesystem::temp_directory_path() /
                        ("teeperf_fuzz." + std::to_string(getpid())))
                           .string();
  std::optional<analyzer::InvocationTable> table;
  if (write_file(prefix + ".log", bytes)) {
    auto walked = analyzer::StreamAnalyzer::analyze_tree(prefix);
    table = analyzer::InvocationTable::load(prefix);
    analyzer::validate_session(prefix);
    std::remove((prefix + ".log").c_str());
    if (walked.has_value() != parsed.has_value() ||
        (walked && signature(*walked) != signature(*parsed))) {
      std::fprintf(stderr, "teeperf_fuzz: the file walk diverged from parse_dump\n");
      std::abort();
    }
  }
  if (!parsed) return;  // rejected: that is a pass
  const analyzer::SessionTree& tree = *parsed;
  analyzer::MergeableProfile agg = analyzer::MergeableProfile::from_tree(tree);
  agg.save();
  analyzer::method_report(agg);
  analyzer::call_graph_report(agg);
  analyzer::gprof_flat_report(agg);
  analyzer::hottest_report(agg);
  analyzer::mprof_summary(agg);
  analyzer::call_tree_report(tree);
  analyzer::bottom_up_report(tree);
  flamegraph::render_profile_svg(agg);
  if (!table) return;
  analyzer::ThreadRollup threads;
  analyzer::CsvRows csv(table->symbols());
  analyzer::ChromeTrace chrome(table->symbols(), table->ns_per_tick());
  for (const analyzer::Invocation& row : table->invocations()) {
    threads.add(row);
    csv.add(row);
    chrome.add(row);
  }
  threads.report(table->symbols(), table->ns_per_tick());
  chrome.finish();
  analyzer::timeline_csv(*table);
  table->where_min_inclusive(1).sort_by(analyzer::SortKey::kExclusive).top(10);
  table->group_by_method();
}

// ---------------------------------------------------------------- mutants --

std::string mutate(const std::string& base, Xorshift64& rng) {
  std::string m = base;
  switch (rng.next_below(8)) {
    case 0: {  // flip 1..8 bits
      if (m.empty()) break;
      u64 flips = 1 + rng.next_below(8);
      for (u64 i = 0; i < flips; ++i) {
        u64 bit = rng.next_below(m.size() * 8);
        m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1u << (bit % 8)));
      }
      break;
    }
    case 1: {  // set random bytes
      if (m.empty()) break;
      u64 n = 1 + rng.next_below(16);
      for (u64 i = 0; i < n; ++i) {
        m[rng.next_below(m.size())] = static_cast<char>(rng.next_below(256));
      }
      break;
    }
    case 2:  // torn tail: truncate anywhere, including mid-header
      m.resize(rng.next_below(m.size() + 1));
      break;
    case 3: {  // grow with random bytes (phantom entries past the real tail)
      u64 n = 1 + rng.next_below(256);
      for (u64 i = 0; i < n; ++i) {
        m.push_back(static_cast<char>(rng.next_below(256)));
      }
      break;
    }
    case 4: {  // header scramble: overwrite an aligned 8-byte header field
      if (m.size() < sizeof(LogHeader)) break;
      u64 off = 8 * rng.next_below(sizeof(LogHeader) / 8);
      u64 v = rng.next();
      if (rng.next_bool(0.4)) v = rng.next_below(5) * 0x7fffffffull;  // edge-ish
      std::memcpy(&m[off], &v, 8);
      break;
    }
    case 5: {  // entry splice: copy one entry range over another
      if (m.size() < sizeof(LogHeader) + 2 * sizeof(LogEntry)) break;
      u64 slots = (m.size() - sizeof(LogHeader)) / sizeof(LogEntry);
      u64 from = rng.next_below(slots), to = rng.next_below(slots);
      u64 len = 1 + rng.next_below(4);
      len = std::min({len, slots - from, slots - to});
      std::memmove(&m[sizeof(LogHeader) + to * sizeof(LogEntry)],
                   &m[sizeof(LogHeader) + from * sizeof(LogEntry)],
                   len * sizeof(LogEntry));
      break;
    }
    case 6: {  // zero a chunk (synthetic tombstones / wiped regions)
      if (m.empty()) break;
      u64 off = rng.next_below(m.size());
      u64 len = std::min<u64>(1 + rng.next_below(96), m.size() - off);
      std::memset(&m[off], 0, len);
      break;
    }
    default: {  // duplicate a chunk onto the end
      if (m.empty()) break;
      u64 off = rng.next_below(m.size());
      u64 len = std::min<u64>(1 + rng.next_below(128), m.size() - off);
      m.append(m, off, len);
      break;
    }
  }
  return m;
}

// Reinterleaves `n` entries at byte offset `off` in place, preserving each
// thread's internal order — the exact nondeterminism the lock-free log
// permits within one tail's domain.
void reorder_entry_span(std::string* bytes, usize off, u64 n, Xorshift64& rng) {
  if (n < 2) return;
  std::vector<LogEntry> entries(n);
  std::memcpy(entries.data(), bytes->data() + off, n * sizeof(LogEntry));

  std::vector<u64> tids;
  std::vector<std::vector<LogEntry>> queues;
  for (const LogEntry& e : entries) {
    usize q = 0;
    for (; q < tids.size(); ++q) {
      if (tids[q] == e.tid) break;
    }
    if (q == tids.size()) {
      tids.push_back(e.tid);
      queues.emplace_back();
    }
    queues[q].push_back(e);
  }
  std::vector<usize> heads(queues.size(), 0);
  std::vector<LogEntry> shuffled;
  shuffled.reserve(n);
  while (shuffled.size() < n) {
    usize q = rng.next_below(queues.size());
    if (heads[q] >= queues[q].size()) continue;
    shuffled.push_back(queues[q][heads[q]++]);
  }
  std::memcpy(bytes->data() + off, shuffled.data(), n * sizeof(LogEntry));
}

// Benign mutation: reinterleave entries across threads while preserving
// each thread's order. Version-aware: a v1 log is one span; a v2 log is
// reordered within each shard window (entries never move between shards —
// a thread is pinned to its shard, so crossing would not be benign). A v2
// directory that is out of range or overlapping is left untouched: with
// aliased windows an in-window shuffle rewrites another window's bytes,
// which is no longer a benign mutation.
std::string reorder_across_threads(const std::string& base, Xorshift64& rng) {
  if (base.size() < sizeof(LogHeader) + sizeof(LogEntry)) return base;
  alignas(LogHeader) unsigned char header_buf[sizeof(LogHeader)];
  std::memcpy(header_buf, base.data(), sizeof(LogHeader));
  const auto* h = reinterpret_cast<const LogHeader*>(header_buf);
  std::string out = base;

  if (h->version != kLogVersionSharded) {
    u64 n = (base.size() - sizeof(LogHeader)) / sizeof(LogEntry);
    reorder_entry_span(&out, sizeof(LogHeader), n, rng);
    return out;
  }

  u32 nshards = h->shard_count;
  if (nshards == 0 || nshards > kMaxLogShards) return base;
  usize dir_bytes = static_cast<usize>(nshards) * sizeof(LogShard);
  if (base.size() - sizeof(LogHeader) < dir_bytes) return base;
  std::vector<LogShard> dir(nshards);
  std::memcpy(static_cast<void*>(dir.data()), base.data() + sizeof(LogHeader),
              dir_bytes);
  u64 available = (base.size() - sizeof(LogHeader) - dir_bytes) / sizeof(LogEntry);

  // Windows clamped the way the loader clamps them; reject aliasing.
  std::vector<std::pair<u64, u64>> windows(nshards, {0, 0});  // (off, n)
  for (u32 s = 0; s < nshards; ++s) {
    u64 off = dir[s].entry_offset;
    if (off >= available) continue;
    u64 n = dir[s].tail.load(std::memory_order_relaxed);
    n = std::min({n, dir[s].capacity, available - off});
    windows[s] = {off, n};
  }
  for (u32 a = 0; a < nshards; ++a) {
    for (u32 b = a + 1; b < nshards; ++b) {
      if (windows[a].second == 0 || windows[b].second == 0) continue;
      if (windows[a].first < windows[b].first + windows[b].second &&
          windows[b].first < windows[a].first + windows[a].second) {
        return base;  // overlapping directory: no benign reorder exists
      }
    }
  }
  usize entry_base = sizeof(LogHeader) + dir_bytes;
  for (u32 s = 0; s < nshards; ++s) {
    reorder_entry_span(&out, entry_base + windows[s].first * sizeof(LogEntry),
                       windows[s].second, rng);
  }
  return out;
}

// ---------------------------------------------------------- crash harness --

// Runs the analysis surface in a forked child; any signal, sanitizer abort
// or nonzero exit counts as a crash.
bool crashes(const std::string& bytes) {
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "teeperf_fuzz: fork failed\n");
    std::exit(1);
  }
  if (pid == 0) {
    exercise(bytes);
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return !(WIFEXITED(status) && WEXITSTATUS(status) == 0);
}

// Shrinks a crashing input: repeatedly drop chunks / truncate while the
// crash reproduces. Bounded, greedy, deterministic.
std::string minimize(std::string bytes) {
  // Tail truncation by halves first — the cheapest big wins.
  for (usize cut = bytes.size() / 2; cut >= 1 && bytes.size() > 1; cut /= 2) {
    while (bytes.size() > cut) {
      std::string candidate = bytes.substr(0, bytes.size() - cut);
      if (!crashes(candidate)) break;
      bytes = std::move(candidate);
    }
    if (cut == 1) break;
  }
  // Chunk removal from the middle.
  for (usize chunk = std::max<usize>(bytes.size() / 4, 1); chunk >= 8;
       chunk /= 2) {
    for (usize off = 0; off + chunk <= bytes.size();) {
      std::string candidate = bytes.substr(0, off) + bytes.substr(off + chunk);
      if (crashes(candidate)) {
        bytes = std::move(candidate);
      } else {
        off += chunk;
      }
    }
  }
  return bytes;
}

// ------------------------------------------------------------------ corpus --

std::vector<std::string> list_corpus(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = opendir(dir.c_str());
  if (!d) return files;
  auto has_suffix = [](const std::string& name, const char* suffix) {
    usize n = std::strlen(suffix);
    return name.size() > n && name.compare(name.size() - n, n, suffix) == 0;
  };
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (has_suffix(name, ".log") || has_suffix(name, ".mprof")) {
      files.push_back(dir + "/" + name);
    }
  }
  closedir(d);
  std::sort(files.begin(), files.end());
  return files;
}

int usage() {
  std::fprintf(stderr,
               "usage: teeperf_fuzz --corpus <dir> [--iters N] [--seed S]\n"
               "                    [--crashers <dir>] [--reorders N]\n"
               "       teeperf_fuzz --gen --corpus <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir, crashers_dir;
  u64 iters = 1000, seed = 1, reorders = 64;
  bool gen = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--corpus" && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else if (arg == "--crashers" && i + 1 < argc) {
      crashers_dir = argv[++i];
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "--reorders" && i + 1 < argc) {
      reorders = static_cast<u64>(std::atoll(argv[++i]));
    } else if (arg == "--gen") {
      gen = true;
    } else {
      std::fprintf(stderr, "teeperf_fuzz: unknown option %s\n", arg.c_str());
      return usage();
    }
  }
  if (corpus_dir.empty()) return usage();

  if (gen) {
    if (!make_dirs(corpus_dir)) {
      std::fprintf(stderr, "teeperf_fuzz: cannot create %s\n", corpus_dir.c_str());
      return 1;
    }
    auto seeds = build_seed_corpus();
    auto mprof_seeds = build_mprof_seed_corpus();
    seeds.insert(seeds.end(), mprof_seeds.begin(), mprof_seeds.end());
    for (const auto& [name, bytes] : seeds) {
      std::string path = corpus_dir + "/" + name;
      if (!write_file(path, bytes)) {
        std::fprintf(stderr, "teeperf_fuzz: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
    }
    return 0;
  }

  std::vector<std::string> files = list_corpus(corpus_dir);
  if (files.empty()) {
    std::fprintf(stderr, "teeperf_fuzz: no .log corpus files in %s\n",
                 corpus_dir.c_str());
    return 1;
  }
  if (crashers_dir.empty()) crashers_dir = corpus_dir;
  make_dirs(crashers_dir);

  std::vector<std::string> corpus;
  for (const std::string& f : files) {
    if (auto bytes = read_file(f)) corpus.push_back(std::move(*bytes));
  }

  Xorshift64 rng(seed);
  u64 crash_count = 0, mismatch_count = 0, rejected = 0, loaded = 0;

  // Phase 1 — regression replay + differential invariance on every corpus
  // file (corpus files are trusted inputs: analyzed in-process, any crash
  // here fails the whole run loudly, which is what a regression should do).
  for (usize f = 0; f < corpus.size(); ++f) {
    // `.mprof` corpus files: format invariants instead of reorder
    // invariance — the canonical serialization must roundtrip exactly, and
    // merging into the empty aggregate must be the identity.
    if (auto m = analyzer::MergeableProfile::load_bytes(corpus[f])) {
      bool bad = m->save() != corpus[f];
      analyzer::MergeableProfile folded;
      if (!folded.merge(*m) || !(folded == *m)) bad = true;
      if (bad) {
        ++mismatch_count;
        std::fprintf(stderr,
                     "teeperf_fuzz: mprof roundtrip/identity violated for "
                     "corpus file %zu\n",
                     f);
      }
      continue;
    }
    auto base = fold_bytes(corpus[f]);
    if (!base) continue;  // a checked-in crasher the loader rejects
    std::string base_sig = signature(*base);
    for (u64 r = 0; r < reorders; ++r) {
      std::string shuffled = reorder_across_threads(corpus[f], rng);
      auto p = fold_bytes(shuffled);
      if (!p || signature(*p) != base_sig) {
        ++mismatch_count;
        std::string path = str_format("%s/mismatch_s%llu_f%zu_r%llu.log",
                                      crashers_dir.c_str(),
                                      static_cast<unsigned long long>(seed), f,
                                      static_cast<unsigned long long>(r));
        write_file(path, shuffled);
        std::fprintf(stderr,
                     "teeperf_fuzz: benign reorder changed results for corpus "
                     "file %zu (saved %s)\n",
                     f, path.c_str());
        break;  // one report per corpus file is enough
      }
    }
  }

  // Phase 2 — mutation fuzzing in forked children.
  for (u64 i = 0; i < iters; ++i) {
    const std::string& base = corpus[rng.next_below(corpus.size())];
    std::string mutant = mutate(base, rng);
    // Stacked mutations on occasion: corruption rarely comes alone.
    while (rng.next_bool(0.3)) mutant = mutate(mutant, rng);

    if (crashes(mutant)) {
      ++crash_count;
      std::string raw_path = str_format("%s/crash_s%llu_i%llu.log",
                                        crashers_dir.c_str(),
                                        static_cast<unsigned long long>(seed),
                                        static_cast<unsigned long long>(i));
      write_file(raw_path, mutant);
      std::string min = minimize(mutant);
      std::string min_path = str_format("%s/crash_s%llu_i%llu.min.log",
                                        crashers_dir.c_str(),
                                        static_cast<unsigned long long>(seed),
                                        static_cast<unsigned long long>(i));
      write_file(min_path, min);
      std::fprintf(stderr,
                   "teeperf_fuzz: crash on mutant %llu (%zu bytes, minimized "
                   "to %zu) — saved %s\n",
                   static_cast<unsigned long long>(i), mutant.size(),
                   min.size(), min_path.c_str());
      if (crash_count >= 10) {
        std::fprintf(stderr, "teeperf_fuzz: stopping after 10 crashes\n");
        break;
      }
      continue;
    }
    // Count accept/reject in-process for the summary (the child already
    // proved this input safe).
    if (analyzer::parse_dump(mutant)) {
      ++loaded;
    } else {
      ++rejected;
    }
  }

  std::printf(
      "teeperf_fuzz: seed=%llu corpus=%zu iters=%llu loaded=%llu "
      "rejected=%llu crashes=%llu mismatches=%llu\n",
      static_cast<unsigned long long>(seed), corpus.size(),
      static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(loaded),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(crash_count),
      static_cast<unsigned long long>(mismatch_count));
  return crash_count || mismatch_count ? 1 : 0;
}
