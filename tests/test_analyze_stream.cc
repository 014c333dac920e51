// Differential tests for the two sinks of the one reconstruction fold
// (analyzer/fold.h, DESIGN.md §12): the path-tree sink (StreamAnalyzer)
// must produce the byte-identical MergeableProfile that a test-side rollup
// of the invocation sink's collected rows (InvocationTable::load →
// rollup, row_rollup.h) produces — over every corpus seed, over real
// drainer sessions (healthy, fault-seeded and torn), and over rejection
// decisions; and the streamed rows must be the collected table's rows. Plus the golden `.mprof` layer
// (regenerate with TEEPERF_UPDATE_GOLDEN=1) and the bounded-memory property
// the streaming pass exists for: analyzing a spill session far larger than
// the shm window without ever holding it in memory.
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"
#include "drain/drainer.h"
#include "faultsim/fault.h"
#include "row_rollup.h"
#include "synthetic_session.h"

namespace teeperf {
namespace {

using analyzer::InvocationTable;
using analyzer::MergeableProfile;
using analyzer::StreamAnalyzer;

std::string corpus_dir() {
  const char* dir = std::getenv("TEEPERF_CORPUS_DIR");
  return dir && *dir ? dir : "tests/corpus";
}

bool update_mode() {
  const char* u = std::getenv("TEEPERF_UPDATE_GOLDEN");
  return u && *u && std::string(u) != "0";
}

std::vector<std::string> seed_logs() {
  std::vector<std::string> names;
  DIR* d = opendir(corpus_dir().c_str());
  if (!d) return names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (starts_with(name, "seed_") && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".log") == 0) {
      names.push_back(name.substr(0, name.size() - 4));
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

void check_golden(const std::string& golden_path, const std::string& actual) {
  if (update_mode()) {
    ASSERT_TRUE(write_file(golden_path, actual)) << golden_path;
    return;
  }
  auto expected = read_file(golden_path);
  ASSERT_TRUE(expected) << "missing golden " << golden_path
                        << " — regenerate with TEEPERF_UPDATE_GOLDEN=1";
  EXPECT_EQ(*expected, actual)
      << "streaming analyzer output drifted from " << golden_path
      << " — if intentional, regenerate with TEEPERF_UPDATE_GOLDEN=1";
}

std::string tmp_prefix(const char* name) {
  return testing::TempDir() + "teeperf_stream_" + name + "." +
         std::to_string(getpid());
}

void remove_session(const std::string& prefix) {
  std::remove((prefix + ".log").c_str());
  for (u32 seq = 0;; ++seq) {
    std::string p = drain::chunk_path(prefix, seq);
    if (!file_exists(p)) break;
    std::remove(p.c_str());
  }
}

// Process-lifetime peak RSS — gtest_discover_tests runs each TEST in its
// own process, so deltas of this measure the enclosed phase's true peak,
// not just its settled footprint.
u64 peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<u64>(ru.ru_maxrss) * 1024;
}

// The in-memory reference pipeline the streaming pass is held equal to.
std::string reference_bytes(const std::string& prefix) {
  auto ref = InvocationTable::load(prefix);
  EXPECT_TRUE(ref.has_value());
  return ref ? rollup(*ref).save() : std::string();
}

// ------------------------------------------------ drainer-session plumbing
// (the test_drain workload, sized down: 4 writers x 400 reps x 4 entries
// against a 1024-entry window — still ~6x the shm capacity)

constexpr int kWriters = 4;
constexpr u64 kReps = 400;
constexpr u64 kTotalEntries = kWriters * kReps * 4;
constexpr u64 kSpillCapacity = 1024;
constexpr u32 kShards = 2;

struct PatientWriters {
  PatientWriters() { ProfileLog::set_spill_wait_spins(~0ull); }
  ~PatientWriters() { ProfileLog::set_spill_wait_spins(u64{1} << 27); }
};

void run_workload(ProfileLog& log) {
  std::vector<std::thread> ws;
  ws.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    ws.emplace_back([&log, t] {
      LogBatch batch;
      const u64 tid = 100 + static_cast<u64>(t);
      const u64 base = 0x1000ull * static_cast<u64>(t + 1);
      u64 c = 1;
      for (u64 i = 0; i < kReps; ++i) {
        batch.record(log, EventKind::kCall, base, tid, c++);
        batch.record(log, EventKind::kCall, base + 1, tid, c++);
        batch.record(log, EventKind::kReturn, base + 1, tid, c++);
        batch.record(log, EventKind::kReturn, base, tid, c++);
      }
      batch.flush(log);
    });
  }
  for (auto& th : ws) th.join();
}

struct SpillLog {
  std::vector<u8> buf;
  ProfileLog log;
  explicit SpillLog(u64 capacity = kSpillCapacity, u32 shards = kShards) {
    buf.resize(ProfileLog::bytes_for(capacity, shards));
    EXPECT_TRUE(log.init(buf.data(), buf.size(), /*pid=*/1,
                         log_flags::kActive | log_flags::kMultithread |
                             log_flags::kSpillDrain,
                         shards));
  }
};

int run_supervised(ProfileLog& log, drain::Drainer& drainer) {
  std::atomic<bool> done{false};
  std::thread workload([&] {
    run_workload(log);
    done.store(true, std::memory_order_release);
  });
  int restarts = 0;
  while (!done.load(std::memory_order_acquire)) {
    if (drainer.dead()) {
      ++restarts;
      EXPECT_TRUE(drainer.restart());
    }
    usleep(500);
  }
  workload.join();
  if (drainer.dead()) {
    ++restarts;
    EXPECT_TRUE(drainer.restart());
  }
  return restarts;
}

// Runs one spill session to completion (chunks + residue dump on disk) and
// returns the drainer restart count.
int record_spill_session(const std::string& prefix, const char* fault_spec,
                         u32 shards = kShards) {
  SpillLog s(kSpillCapacity, shards);
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 256;
  dopts.poll_interval_us = 100;
  drain::Drainer drainer(&s.log, dopts);
  EXPECT_TRUE(drainer.start());
  int restarts;
  if (fault_spec) {
    fault::ScopedFault fault(fault_spec);
    restarts = run_supervised(s.log, drainer);
  } else {
    run_workload(s.log);
    restarts = 0;
  }
  EXPECT_TRUE(drainer.final_drain());
  EXPECT_EQ(s.log.dropped(), 0u);
  EXPECT_TRUE(s.log.write_compact(prefix + ".log"));
  return restarts;
}

// ------------------------------------------------------ corpus differential

TEST(AnalyzeStream, CorpusDifferentialByteIdentical) {
  std::vector<std::string> names = seed_logs();
  ASSERT_GE(names.size(), 8u) << "corpus dir: " << corpus_dir();
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    std::string prefix = corpus_dir() + "/" + name;
    auto ref = InvocationTable::load(prefix);
    ASSERT_TRUE(ref.has_value()) << "loader rejected a trusted seed";
    std::string err;
    auto streamed = StreamAnalyzer::analyze(prefix, &err);
    ASSERT_TRUE(streamed.has_value()) << err;
    EXPECT_EQ(streamed->save(), rollup(*ref).save());
    EXPECT_EQ(streamed->sessions, 1u);
  }
}

TEST(AnalyzeStream, CorpusGoldenMprofBitIdentical) {
  for (const std::string& name : seed_logs()) {
    SCOPED_TRACE(name);
    auto streamed = StreamAnalyzer::analyze(corpus_dir() + "/" + name);
    ASSERT_TRUE(streamed.has_value());
    std::string bytes = streamed->save();
    check_golden(corpus_dir() + "/golden/" + name + ".mprof", bytes);
    // The checked-in golden must itself load and re-serialize canonically.
    std::string err;
    auto loaded = MergeableProfile::load_bytes(bytes, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    EXPECT_EQ(loaded->save(), bytes);
  }
}

// ------------------------------------------------- spill-session differential

TEST(AnalyzeStream, SpillSessionDifferentialByteIdentical) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("spill");
  remove_session(prefix);
  record_spill_session(prefix, nullptr);

  std::string ref = reference_bytes(prefix);
  std::string err;
  auto streamed = StreamAnalyzer::analyze_spill(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), ref);
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  EXPECT_EQ(streamed->stats.tombstones, 0u);

  // analyze() auto-detects the chunk sequence, like InvocationTable::load.
  auto auto_detected = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(auto_detected.has_value()) << err;
  EXPECT_EQ(auto_detected->save(), ref);
  remove_session(prefix);
}

TEST(AnalyzeStream, FaultSeededDrainerDeathDifferential) {
  // The drainer dies and restarts mid-session: chunk overlap and resume
  // stitching in play. Both pipelines must agree to the byte.
  PatientWriters patient;
  std::string prefix = tmp_prefix("die");
  remove_session(prefix);
  int restarts = record_spill_session(prefix, "drain.die:nth=2");
  EXPECT_GE(restarts, 1);

  std::string err;
  auto streamed = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), reference_bytes(prefix));
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  remove_session(prefix);
}

TEST(AnalyzeStream, FaultSeededTornChunkDifferential) {
  // A chunk torn mid-write and rewritten whole on resume: the overwritten
  // sequence must analyze identically through both pipelines.
  PatientWriters patient;
  std::string prefix = tmp_prefix("torn");
  remove_session(prefix);
  int restarts = record_spill_session(prefix, "drain.chunk.torn:nth=2");
  EXPECT_GE(restarts, 1);

  std::string err;
  auto streamed = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), reference_bytes(prefix));
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  remove_session(prefix);
}

TEST(AnalyzeStream, TornTrailingChunkParityCorruptMiddleRejectsBoth) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("parity");
  remove_session(prefix);
  record_spill_session(prefix, nullptr);
  u32 chunks = 0;
  while (file_exists(drain::chunk_path(prefix, chunks))) ++chunks;
  ASSERT_GE(chunks, 3u);

  // Truncate the trailing chunk: both pipelines degrade to the surviving
  // prefix — and to the same bytes.
  std::string last_path = drain::chunk_path(prefix, chunks - 1);
  auto last_raw = read_file(last_path);
  ASSERT_TRUE(last_raw.has_value());
  ASSERT_TRUE(write_file(
      last_path, std::string_view(last_raw->data(), last_raw->size() / 2)));
  auto ref = InvocationTable::load(prefix);
  ASSERT_TRUE(ref.has_value());
  std::string err;
  auto streamed = StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->save(), rollup(*ref).save());
  EXPECT_LT(streamed->stats.entries, kTotalEntries);  // genuinely degraded

  // A corrupt chunk in the middle rejects through both pipelines.
  ASSERT_TRUE(write_file(last_path, *last_raw));
  std::string mid_path = drain::chunk_path(prefix, 1);
  auto mid_raw = read_file(mid_path);
  ASSERT_TRUE(mid_raw.has_value());
  (*mid_raw)[mid_raw->size() / 2] ^= 0x40;
  ASSERT_TRUE(write_file(mid_path, *mid_raw));
  EXPECT_FALSE(InvocationTable::load(prefix).has_value());
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);
}

TEST(AnalyzeStream, RejectionParityWithInMemoryLoader) {
  std::string prefix = tmp_prefix("reject");
  remove_session(prefix);

  // Nothing on disk at all.
  EXPECT_EQ(InvocationTable::load(prefix).has_value(),
            StreamAnalyzer::analyze(prefix).has_value());
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());

  // A .log that is not a dump.
  ASSERT_TRUE(write_file(prefix + ".log", "this is not a profile dump"));
  EXPECT_EQ(InvocationTable::load(prefix).has_value(),
            StreamAnalyzer::analyze(prefix).has_value());
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);

  // A lone unparseable chunk with no residue: torn-trailing tolerance has
  // nothing left to analyze — both pipelines must make the same call.
  ASSERT_TRUE(write_file(drain::chunk_path(prefix, 0), "torn"));
  EXPECT_EQ(InvocationTable::load(prefix).has_value(),
            StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);
}

// ------------------------------------------------ the invocation stream

// The rows InvocationStream hands over as frames close, over a 4-shard
// spill session, are the collected table's rows: the same multiset, each
// with its shard, open sequence number and parent.
TEST(AnalyzeStream, StreamedRowsEqualCollectedTableRows) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("rows");
  remove_session(prefix);
  record_spill_session(prefix, nullptr, /*shards=*/4);

  std::vector<analyzer::Invocation> streamed;
  analyzer::InvocationStream stream(
      [&](const analyzer::Invocation& row) { streamed.push_back(row); });
  ASSERT_TRUE(analyzer::walk_session(prefix, stream).has_value());
  analyzer::ReconstructionStats recon = stream.finish();

  auto table = InvocationTable::load(prefix);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(recon, table->recon_stats());
  EXPECT_EQ(recon.entries, kTotalEntries);
  // A collected row's parent is an index into the table; a streamed row's
  // is its parent's seq.
  std::vector<analyzer::Invocation> collected = table->invocations();
  for (analyzer::Invocation& row : collected) {
    if (row.parent >= 0) {
      row.parent = static_cast<i64>(table->invocations()[static_cast<usize>(row.parent)].seq);
    }
  }
  auto by_place = [](const analyzer::Invocation& a, const analyzer::Invocation& b) {
    return a.shard != b.shard ? a.shard < b.shard : a.seq < b.seq;
  };
  ASSERT_TRUE(std::is_sorted(collected.begin(), collected.end(), by_place));
  std::sort(streamed.begin(), streamed.end(), by_place);
  EXPECT_EQ(streamed, collected);
  EXPECT_EQ(streamed.size(), kTotalEntries / 2);
  ASSERT_FALSE(collected.empty());
  EXPECT_EQ(collected.back().shard, 3u);
  remove_session(prefix);
}

// ------------------------------------------- fold state across feed boundaries

// Every corpus seed, each shard window fed in two pieces at every split
// point (every k-th on large seeds): the open frames, the tid cache and
// the stats carry across the boundary, so both sinks must land exactly
// where one piece does — the same `.mprof` bytes through the path-tree
// sink, the same rows and stats through the invocation sink.
TEST(AnalyzeStream, SplitFeedMatchesOnePieceForBothSinks) {
  using analyzer::InvocationSink;
  using analyzer::ShardFold;
  for (const std::string& name : seed_logs()) {
    SCOPED_TRACE(name);
    auto raw = read_file(corpus_dir() + "/" + name + ".log");
    ASSERT_TRUE(raw.has_value());
    auto dump = analyzer::parse_dump(*raw);
    ASSERT_TRUE(dump.has_value());
    const auto& shards = dump->shards;
    u64 total = 0;
    for (const auto& w : shards) total += w.size();
    u64 step = total > 4096 ? total / 1024 : 1;

    // Shard `split` fed in two pieces at `at`, every other shard in one.
    auto mprof = [&](usize split, u64 at) {
      StreamAnalyzer sa;
      for (usize s = 0; s < shards.size(); ++s) {
        u32 id = static_cast<u32>(s);
        u64 head = s == split ? at : shards[s].size();
        sa.feed(id, shards[s].data(), head);
        sa.feed(id, shards[s].data() + head, shards[s].size() - head);
      }
      sa.set_ns_per_tick(dump->layout.ns_per_tick);
      return sa.finish().save();
    };
    const std::string one_piece = mprof(shards.size(), 0);
    EXPECT_EQ(one_piece, reference_bytes(corpus_dir() + "/" + name));

    for (usize s = 0; s < shards.size(); ++s) {
      const LogEntry* w = shards[s].data();
      u64 n = shards[s].size();
      ShardFold<InvocationSink> whole;
      whole.feed(w, n);
      whole.close_all();
      for (u64 at = 0; at <= n; at += step) {
        SCOPED_TRACE("shard " + std::to_string(s) + " split at " + std::to_string(at));
        EXPECT_EQ(mprof(s, at), one_piece);
        ShardFold<InvocationSink> split;
        split.feed(w, at);
        split.feed(w + at, n - at);
        split.close_all();
        EXPECT_EQ(split.sink.closed, whole.sink.closed);
        EXPECT_EQ(split.recon(), whole.recon());
        EXPECT_EQ(split.thread_count(), whole.thread_count());
      }
    }
  }
}

// ------------------------------------------------ validation of spill sessions

// validate_session reads every entry walk_session feeds: a defect in chunk
// 0 is reported whether the residue dump is missing or clean.
TEST(AnalyzeStream, ValidateFileChecksSpillChunks) {
  std::string prefix = tmp_prefix("validate");
  remove_session(prefix);
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  auto entry = [](EventKind kind, u64 addr, u64 tid, u64 counter) {
    LogEntry e{};
    e.kind_and_counter = LogEntry::pack(kind, counter);
    e.addr = addr;
    e.tid = tid;
    return e;
  };
  // Shard 0, thread 2: a counter that runs backwards, then a call that
  // never returns. Shard 1, thread 1: balanced and monotonic.
  std::vector<drain::ShardWindow> chunk(2);
  chunk[0].entries = {entry(EventKind::kCall, 0x100, 2, 100),
                      entry(EventKind::kReturn, 0x100, 2, 50),
                      entry(EventKind::kCall, 0x200, 2, 60)};
  chunk[1].entries = {entry(EventKind::kCall, 0x300, 1, 10),
                      entry(EventKind::kReturn, 0x300, 1, 20)};
  ASSERT_TRUE(write_file(drain::chunk_path(prefix, 0),
                         drain::serialize_chunk(session, chunk, 0)));

  auto expect_both_issues = [&](u64 entries) {
    auto issues = analyzer::validate_session(prefix);
    ASSERT_TRUE(issues.has_value()) << "a session killed before dump must validate";
    ASSERT_EQ(issues->size(), 2u);
    EXPECT_EQ((*issues)[0].kind, analyzer::ValidationIssue::Kind::kNonMonotonicCounter);
    EXPECT_EQ((*issues)[0].tid, 2u);
    EXPECT_EQ((*issues)[0].entry_index, 1u);  // position in feed order
    EXPECT_EQ((*issues)[1].kind, analyzer::ValidationIssue::Kind::kUnbalancedThread);
    EXPECT_EQ((*issues)[1].tid, 2u);
    EXPECT_EQ((*issues)[1].entry_index, entries);
  };
  expect_both_issues(5);  // no residue

  // A clean residue continuing both shards: on its own it validates clean.
  std::vector<drain::ShardWindow> residue(2);
  residue[0].start = 3;
  residue[0].entries = {entry(EventKind::kCall, 0x400, 2, 70),
                        entry(EventKind::kReturn, 0x400, 2, 80)};
  residue[1].start = 2;
  std::string residue_chunk = drain::serialize_chunk(session, residue, 1);
  std::string residue_dump = residue_chunk.substr(sizeof(drain::ChunkFrame));
  ASSERT_TRUE(write_file(prefix + ".log", residue_dump));
  auto residue_only = analyzer::parse_dump(residue_dump);
  ASSERT_TRUE(residue_only.has_value());
  ASSERT_EQ(residue_only->shards[0].size(), 2u);
  EXPECT_TRUE(analyzer::validate(residue_only->shards[0].data(), 2).empty());
  expect_both_issues(7);
  remove_session(prefix);
}

// --------------------------------------------------------- bounded memory

TEST(AnalyzeStream, BoundedMemoryOverLargeSyntheticSession) {
  std::string prefix = tmp_prefix("large");
  remove_session(prefix);
  // 160 chunks x 2 shards x 2048 entries = 655,360 entries (~20 MB on
  // disk), hundreds of times any realistic shm window.
  constexpr u32 kChunks = 160;
  constexpr u64 kPerShard = 2048;
  constexpr u64 kSynthTotal = u64{kChunks} * 2 * kPerShard;
  write_synthetic_session(prefix, kChunks, kPerShard);

  u64 peak_before = peak_rss_bytes();
  std::string err;
  auto streamed = StreamAnalyzer::analyze_spill(prefix, &err);
  u64 peak_after = peak_rss_bytes();
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->stats.entries, kSynthTotal);
  EXPECT_EQ(streamed->stats.thread_count, 2u);
  EXPECT_EQ(streamed->methods.size(), 3 * 16u);

  // The bounded-memory property: streaming one chunk at a time must never
  // approach the session's size. A collected table holds every row
  // (~29 MB here); the streaming pass holds one chunk and the rolling
  // aggregates.
  ASSERT_GT(peak_before, 0u);
  EXPECT_LT(peak_after, peak_before + (24ull << 20))
      << "streaming analysis peaked " << (peak_after - peak_before)
      << " bytes over baseline for a "
      << (kSynthTotal * sizeof(LogEntry) >> 20) << " MB session";

  // And it is still the exact same aggregate the collected rows roll up to.
  auto ref = InvocationTable::load(prefix);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(streamed->save(), rollup(*ref).save());
  remove_session(prefix);
}

// ------------------------------------------------- the chunk reader thread

// analyze_spill reads and verifies chunk k+1 on a reader thread while the
// caller folds chunk k. Every way out of the chunk loop — a clean end, a
// corrupt middle chunk, a chunk that verifies but does not parse — must
// return with that thread joined.
int live_threads() {
  // A sanitizer runtime may start its own helper thread when the process
  // first spawns one; spawn and join one first so it is already counted.
  std::thread([] {}).join();
  auto status = read_file("/proc/self/status");
  if (!status) return -1;
  usize at = status->find("Threads:");
  if (at == std::string::npos) return -1;
  return std::atoi(status->c_str() + at + 8);
}

// The live thread count once it has fallen back to `want`, or after 5 s.
// A joined thread leaves the count a moment after pthread_join returns
// (the kernel wakes the joiner before it reaps the thread), so a busy host
// can show one joined a microsecond ago; a thread still running never
// leaves it.
int threads_after_settling(int want) {
  int n = live_threads();
  for (int i = 0; i < 500 && n != want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = live_threads();
  }
  return n;
}

constexpr u32 kReaderChunks = 8;
constexpr u64 kReaderPerShard = 512;

TEST(AnalyzeStream, ReaderThreadCorruptMiddleChunkFailsAndJoins) {
  std::string prefix = tmp_prefix("reader_corrupt");
  remove_session(prefix);
  write_synthetic_session(prefix, kReaderChunks, kReaderPerShard);
  std::string path = drain::chunk_path(prefix, 3);
  auto raw = read_file(path);
  ASSERT_TRUE(raw.has_value());
  (*raw)[raw->size() / 2] ^= 0x10;
  ASSERT_TRUE(write_file(path, *raw));

  int before = live_threads();
  ASSERT_GT(before, 0);
  std::string err;
  EXPECT_FALSE(StreamAnalyzer::analyze_spill(prefix, &err).has_value());
  EXPECT_EQ(err, "corrupt chunk sequence");
  EXPECT_EQ(threads_after_settling(before), before);
  EXPECT_FALSE(InvocationTable::load(prefix).has_value());
  remove_session(prefix);
}

TEST(AnalyzeStream, ReaderThreadToleratesTornTrailingChunk) {
  std::string prefix = tmp_prefix("reader_torn");
  remove_session(prefix);
  write_synthetic_session(prefix, kReaderChunks, kReaderPerShard);
  std::string path = drain::chunk_path(prefix, kReaderChunks - 1);
  auto raw = read_file(path);
  ASSERT_TRUE(raw.has_value());
  ASSERT_TRUE(write_file(path, std::string_view(raw->data(), raw->size() - 40)));

  int before = live_threads();
  std::string err;
  auto streamed = StreamAnalyzer::analyze_spill(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->stats.entries, u64{kReaderChunks - 1} * 2 * kReaderPerShard);
  EXPECT_EQ(threads_after_settling(before), before);
  auto ref = InvocationTable::load(prefix);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(streamed->save(), rollup(*ref).save());
  remove_session(prefix);
}

TEST(AnalyzeStream, ReaderThreadEarlyStopDoesNotHang) {
  // Chunk 2 verifies but carries three shards instead of two: the fold
  // stops at it while the reader may already hold chunk 3. The call must
  // still return, reject, and leave no thread behind.
  std::string prefix = tmp_prefix("reader_stop");
  remove_session(prefix);
  write_synthetic_session(prefix, kReaderChunks, kReaderPerShard);
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  std::vector<drain::ShardWindow> windows(3);
  LogEntry e{};
  e.kind_and_counter = LogEntry::pack(EventKind::kCall, 1);
  e.addr = 0x100;
  windows[0].entries.push_back(e);
  ASSERT_TRUE(write_file(drain::chunk_path(prefix, 2),
                         drain::serialize_chunk(session, windows, 2)));

  int before = live_threads();
  std::string err;
  EXPECT_FALSE(StreamAnalyzer::analyze_spill(prefix, &err).has_value());
  EXPECT_EQ(err, "corrupt chunk sequence");
  EXPECT_EQ(threads_after_settling(before), before);
  EXPECT_FALSE(InvocationTable::load(prefix).has_value());

  // A chunk that verifies but holds no loadable dump (a zero-shard
  // directory) stops the fold the same way.
  drain::ChunkBuilder builder;
  builder.set_session(session);
  builder.begin(0, 0);
  std::string chunk(builder.finish(2));
  ASSERT_TRUE(write_file(drain::chunk_path(prefix, 2), chunk));
  EXPECT_FALSE(StreamAnalyzer::analyze_spill(prefix, &err).has_value());
  EXPECT_EQ(err, "corrupt chunk sequence");
  EXPECT_EQ(threads_after_settling(before), before);
  remove_session(prefix);
}

}  // namespace
}  // namespace teeperf
