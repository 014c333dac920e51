// Streaming spill drainer (src/drain/, DESIGN.md §10): live drain while
// writers run, chunked persistence with CRC framing, crash/resume of the
// drainer, loader stitching (including the overlap a drainer crash between
// persist and cursor-advance leaves), and the dead-drainer force-advance
// overflow path. The acceptance property from the ISSUE rides here: a spill
// session pushing many times the shm capacity must analyze with zero drops
// and method stats bit-identical to an unbounded in-memory run.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "core/counter.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"
#include "drain/drainer.h"
#include "faultsim/fault.h"
#include "row_rollup.h"
#include "written_dump.h"

namespace teeperf {
namespace {

using analyzer::MergeableProfile;
using analyzer::StreamAnalyzer;

constexpr int kWriters = 4;
constexpr u64 kReps = 1000;  // 4 entries per rep
constexpr u64 kTotalEntries = kWriters * kReps * 4;
constexpr u64 kSpillCapacity = 2048;  // kTotalEntries is ~8x this
constexpr u32 kShards = 2;

// Tests that must not hit the force-advance drop path (a starved drainer on
// a loaded CI machine would otherwise flake them) raise the writers' space
// wait budget to effectively-infinite for their scope.
struct PatientWriters {
  PatientWriters() { ProfileLog::set_spill_wait_spins(~0ull); }
  ~PatientWriters() { ProfileLog::set_spill_wait_spins(u64{1} << 27); }
};

u64 resident_bytes() {
  auto statm = read_file("/proc/self/statm");
  if (!statm) return 0;
  unsigned long long total = 0, resident = 0;
  std::sscanf(statm->c_str(), "%llu %llu", &total, &resident);
  return static_cast<u64>(resident) * static_cast<u64>(sysconf(_SC_PAGESIZE));
}

std::string tmp_prefix(const char* name) {
  return testing::TempDir() + "teeperf_drain_" + name + "." +
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

// Deterministic nested-call workload: per-thread synthetic counters, so two
// runs (spill and unbounded) commit identical per-thread streams.
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

// The unbounded reference: same workload, same shard layout, no spill.
MergeableProfile reference_profile() {
  std::vector<u8> buf(ProfileLog::bytes_for(kTotalEntries * 2, kShards));
  ProfileLog log;
  EXPECT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kMultithread, kShards));
  run_workload(log);
  EXPECT_EQ(log.size(), kTotalEntries);
  return MergeableProfile::from_tree(StreamAnalyzer::analyze_log(log));
}

void expect_profiles_identical(const MergeableProfile& a, const MergeableProfile& b) {
  EXPECT_EQ(a.stats.entries, b.stats.entries);
  EXPECT_EQ(a.methods, b.methods);
  EXPECT_EQ(a.stacks, b.stacks);
}

TEST(Drain, SpillSessionMatchesUnboundedRunExactly) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("roundtrip");
  remove_session(prefix);
  SpillLog s;
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 384;
  dopts.poll_interval_us = 200;
  drain::Drainer drainer(&s.log, dopts);
  ASSERT_TRUE(drainer.start());

  run_workload(s.log);
  ASSERT_TRUE(drainer.final_drain());

  EXPECT_EQ(s.log.dropped(), 0u);
  drain::Drainer::Stats st = drainer.stats();
  EXPECT_EQ(st.drained_entries, kTotalEntries);  // all flushed => all drained
  EXPECT_EQ(st.lag_entries, 0u);
  EXPECT_GT(st.chunks, 4u);  // genuinely chunked, not one giant file
  EXPECT_GT(st.spilled_bytes, kTotalEntries * sizeof(LogEntry));
  EXPECT_EQ(s.log.size(), 0u);  // no unpublished residue

  ASSERT_TRUE(s.log.write_compact(prefix + ".log"));
  auto spilled = analyzer::InvocationTable::load(prefix);  // auto-detects .seg.0000
  ASSERT_TRUE(spilled.has_value());
  EXPECT_EQ(spilled->recon_stats().entries, kTotalEntries);
  EXPECT_EQ(spilled->recon_stats().tombstones, 0u);
  expect_profiles_identical(rollup(*spilled), reference_profile());

  // The second half of the acceptance property: the streaming analyzer over
  // the same ≥8×-capacity session derives the byte-identical aggregate
  // without materializing it — its RSS stays bounded while it runs.
  u64 rss_before = resident_bytes();
  std::string err;
  auto streamed = analyzer::StreamAnalyzer::analyze(prefix, &err);
  u64 rss_after = resident_bytes();
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  EXPECT_EQ(streamed->save(), rollup(*spilled).save());
  ASSERT_GT(rss_before, 0u);
  EXPECT_LT(rss_after, rss_before + (32ull << 20))
      << "streaming analysis grew RSS by " << (rss_after - rss_before);
  remove_session(prefix);
}

TEST(Drain, LoadsFromChunksAloneWithoutResidueDump) {
  // A session killed before dump time: chunks on disk, no .log. Everything
  // already drained must still analyze.
  PatientWriters patient;
  std::string prefix = tmp_prefix("nolog");
  remove_session(prefix);
  SpillLog s;
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 512;
  drain::Drainer drainer(&s.log, dopts);
  ASSERT_TRUE(drainer.start());
  run_workload(s.log);
  ASSERT_TRUE(drainer.final_drain());

  auto p = StreamAnalyzer::analyze(prefix);  // no .log written
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stats.entries, kTotalEntries);
  remove_session(prefix);
}

// Supervises like teeperf_record: restart the drainer whenever it dies.
// Returns the number of restarts performed.
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

TEST(Drain, DrainerDeathAndRestartLosesNothing) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("die");
  remove_session(prefix);
  fault::ScopedFault die("drain.die:nth=3");
  SpillLog s;
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 256;
  dopts.poll_interval_us = 100;
  drain::Drainer drainer(&s.log, dopts);
  ASSERT_TRUE(drainer.start());

  int restarts = run_supervised(s.log, drainer);
  ASSERT_TRUE(drainer.final_drain());
  EXPECT_GE(restarts, 1);  // the armed death actually happened

  EXPECT_EQ(s.log.dropped(), 0u);
  EXPECT_EQ(drainer.stats().drained_entries, kTotalEntries);
  ASSERT_TRUE(s.log.write_compact(prefix + ".log"));
  auto p = StreamAnalyzer::analyze(prefix);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stats.entries, kTotalEntries);
  EXPECT_EQ(p->stats.tombstones, 0u);
  expect_profiles_identical(*p, reference_profile());
  remove_session(prefix);
}

TEST(Drain, TornChunkIsRewrittenOnResume) {
  // The drainer dies mid-write (drain.chunk.torn): half a chunk hits disk
  // and the cursors stay put. The restarted drainer must adopt the torn
  // chunk's sequence number, rewrite it whole, and lose nothing.
  PatientWriters patient;
  std::string prefix = tmp_prefix("torn");
  remove_session(prefix);
  fault::ScopedFault torn("drain.chunk.torn:nth=2");
  SpillLog s;
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 256;
  dopts.poll_interval_us = 100;
  drain::Drainer drainer(&s.log, dopts);
  ASSERT_TRUE(drainer.start());

  int restarts = run_supervised(s.log, drainer);
  ASSERT_TRUE(drainer.final_drain());
  EXPECT_GE(restarts, 1);

  // Every chunk on disk parses — the torn one was overwritten, not skipped.
  for (u32 seq = 0;; ++seq) {
    auto raw = read_file(drain::chunk_path(prefix, seq));
    if (!raw) break;
    std::string err;
    u32 got = 0;
    std::string_view payload;
    EXPECT_TRUE(drain::parse_chunk(*raw, &got, &payload, &err))
        << "chunk " << seq << ": " << err;
    EXPECT_EQ(got, seq);
  }
  ASSERT_TRUE(s.log.write_compact(prefix + ".log"));
  auto p = StreamAnalyzer::analyze(prefix);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stats.entries, kTotalEntries);
  remove_session(prefix);
}

TEST(Drain, LoaderSkipsOverlapFromCrashBetweenPersistAndAdvance) {
  // The one crash window the chunk CRC cannot cover: the chunk is fully
  // persisted but the drainer dies before advancing `drained`. The same
  // window then reappears in the residue dump; the absolute start cursors
  // must deduplicate it to exactly-once.
  std::string prefix = tmp_prefix("overlap");
  remove_session(prefix);
  SpillLog s(/*capacity=*/1024, /*shards=*/kShards);
  LogBatch batch;
  for (u64 i = 0; i < 300; ++i) {
    batch.record(s.log, i % 2 ? EventKind::kReturn : EventKind::kCall, 0x7000,
                 /*tid=*/5, i + 1);
  }
  batch.flush(s.log);

  // Persist everything published as chunk 0 — without zeroing or advancing
  // the cursors, exactly the state a crash at that point leaves behind.
  std::vector<drain::ShardWindow> windows(s.log.shard_count());
  for (u32 sh = 0; sh < s.log.shard_count(); ++sh) {
    windows[sh].start = 0;
    s.log.window(sh).append_to(&windows[sh].entries);
  }
  ASSERT_TRUE(write_file(drain::chunk_path(prefix, 0),
                         drain::serialize_chunk(*s.log.header(), windows, 0)));
  // The residue dump re-covers the same window (drained never moved).
  ASSERT_TRUE(s.log.write_compact(prefix + ".log"));

  auto p = StreamAnalyzer::analyze(prefix);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stats.entries, 300u);  // once, not twice
  remove_session(prefix);
}

TEST(Drain, LoaderToleratesTornTrailingChunkRejectsBadMiddle) {
  PatientWriters patient;
  std::string prefix = tmp_prefix("loader");
  remove_session(prefix);
  SpillLog s;
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 256;
  drain::Drainer drainer(&s.log, dopts);
  ASSERT_TRUE(drainer.start());
  run_workload(s.log);
  ASSERT_TRUE(drainer.final_drain());
  ASSERT_TRUE(s.log.write_compact(prefix + ".log"));
  u64 chunks = drainer.stats().chunks;
  ASSERT_GE(chunks, 3u);

  // Truncate the last chunk: its window is genuinely gone (it was drained),
  // but the load must degrade to the surviving prefix, not fail.
  std::string last_path = drain::chunk_path(prefix, static_cast<u32>(chunks - 1));
  auto last_raw = read_file(last_path);
  ASSERT_TRUE(last_raw.has_value());
  std::string_view payload;
  ASSERT_TRUE(drain::parse_chunk(*last_raw, nullptr, &payload, nullptr));
  auto last_chunk = table_of_dump(payload);
  ASSERT_TRUE(last_chunk.has_value());
  u64 last_entries = last_chunk->recon_stats().entries;
  ASSERT_TRUE(write_file(last_path, std::string_view(last_raw->data(),
                                                     last_raw->size() / 2)));
  auto tolerant = StreamAnalyzer::analyze(prefix);
  ASSERT_TRUE(tolerant.has_value());
  EXPECT_EQ(tolerant->stats.entries, kTotalEntries - last_entries);

  // A corrupt chunk *followed by good ones* cannot come from the protocol:
  // refuse to analyze rather than silently drop the middle of the session.
  ASSERT_TRUE(write_file(last_path, *last_raw));  // restore the tail
  std::string mid_path = drain::chunk_path(prefix, 1);
  auto mid_raw = read_file(mid_path);
  ASSERT_TRUE(mid_raw.has_value());
  (*mid_raw)[mid_raw->size() / 2] ^= 0x40;
  ASSERT_TRUE(write_file(mid_path, *mid_raw));
  EXPECT_FALSE(StreamAnalyzer::analyze(prefix).has_value());
  remove_session(prefix);
}

TEST(Drain, DeadDrainerForceAdvanceKeepsNewestAndCountsDrops) {
  // No drainer at all and a tiny spin budget: the space wait gives up and
  // force-advances the drain cursor, discarding the oldest undrained
  // entries and counting every one of them as dropped — writers never
  // deadlock on a dead drainer.
  ProfileLog::set_spill_wait_spins(1000);
  const u64 cap = 256, total = 1024;
  SpillLog s(cap, /*shards=*/1);
  LogBatch batch;
  for (u64 i = 0; i < total; ++i) {
    batch.record(s.log, i % 2 ? EventKind::kReturn : EventKind::kCall, 0x9000,
                 /*tid=*/7, i + 1);
  }
  batch.flush(s.log);
  ProfileLog::set_spill_wait_spins(u64{1} << 27);

  EXPECT_EQ(s.log.attempted(), total);
  EXPECT_EQ(s.log.dropped(), total - cap);  // exact keep-newest accounting
  EXPECT_EQ(s.log.size(), cap);
  auto p = table_of_dump(written_dump(s.log));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->recon_stats().entries, cap);
  EXPECT_EQ(p->recon_stats().tombstones, 0u);
  // What survives is the newest window: the highest counters.
  const std::vector<analyzer::Invocation>& inv = p->invocations();
  ASSERT_FALSE(inv.empty());
}

TEST(Drain, ChunkFrameRejectsCorruption) {
  std::vector<drain::ShardWindow> windows(1);
  windows[0].start = 17;
  LogEntry e{};
  e.kind_and_counter = LogEntry::pack(EventKind::kCall, 42);
  e.addr = 0x1234;
  e.tid = 9;
  windows[0].entries.push_back(e);
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  std::string chunk = drain::serialize_chunk(session, windows, 7);

  u32 seq = 0;
  std::string_view payload;
  std::string err;
  ASSERT_TRUE(drain::parse_chunk(chunk, &seq, &payload, &err)) << err;
  EXPECT_EQ(seq, 7u);
  auto p = table_of_dump(payload);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->recon_stats().entries, 1u);

  // Too short for a frame.
  EXPECT_FALSE(drain::parse_chunk(chunk.substr(0, 16), &seq, &payload, &err));
  // Bad magic.
  std::string bad = chunk;
  bad[0] ^= 0xff;
  EXPECT_FALSE(drain::parse_chunk(bad, &seq, &payload, &err));
  // Truncated payload.
  EXPECT_FALSE(
      drain::parse_chunk(chunk.substr(0, chunk.size() - 8), &seq, &payload, &err));
  // One flipped payload bit.
  bad = chunk;
  bad[sizeof(drain::ChunkFrame) + 5] ^= 0x01;
  EXPECT_FALSE(drain::parse_chunk(bad, &seq, &payload, &err));
  // Flipped frame field (seq) caught by the header CRC.
  bad = chunk;
  bad[8] ^= 0x01;
  EXPECT_FALSE(drain::parse_chunk(bad, &seq, &payload, &err));
}

// The windows a drain round of `log` would consume right now, as the
// serialize_chunk input: every shard's published-but-undrained window, read
// out of shm with its absolute start cursor (0 for an empty shard).
std::vector<drain::ShardWindow> pending_windows(const ProfileLog& log) {
  std::vector<drain::ShardWindow> windows(log.shard_count());
  for (u32 sh = 0; sh < log.shard_count(); ++sh) {
    log.window(sh).append_to(&windows[sh].entries);
    if (!windows[sh].entries.empty()) {
      windows[sh].start = log.shard(sh)->drained.load();
    }
  }
  return windows;
}

void record_calls(ProfileLog& log, u64 tid, u64 n, u64* counter) {
  LogBatch batch;
  for (u64 i = 0; i < n; ++i) {
    batch.record(log, i % 2 ? EventKind::kReturn : EventKind::kCall, 0x5000,
                 tid, ++*counter);
  }
  batch.flush(log);
}

TEST(Drain, DrainerChunkIsSerializeChunkOfTheSameWindows) {
  // The drainer copies windows from shm straight into its reused chunk
  // buffer; serialize_chunk builds from vectors. Both go through the one
  // ChunkBuilder, so the bytes must agree — for a window that wraps the
  // shard ring and for a shard with nothing to drain.
  std::string prefix = tmp_prefix("bytes");
  remove_session(prefix);
  SpillLog s(/*capacity=*/128, /*shards=*/2);  // 64 entries per shard
  ASSERT_EQ(s.log.shard(0)->capacity, 64u);
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  drain::Drainer drainer(&s.log, dopts);
  u64 counter = 0;

  // tid 2 lands in shard 0; shard 1 stays empty throughout.
  record_calls(s.log, /*tid=*/2, 40, &counter);
  std::vector<drain::ShardWindow> first = pending_windows(s.log);
  ASSERT_TRUE(drainer.final_drain());
  auto chunk0 = read_file(drain::chunk_path(prefix, 0));
  ASSERT_TRUE(chunk0.has_value());
  EXPECT_EQ(*chunk0, drain::serialize_chunk(*s.log.header(), first, 0));

  // [40, 90) in a 64-slot ring: 24 entries up to the end, 26 from slot 0.
  record_calls(s.log, /*tid=*/2, 50, &counter);
  std::vector<drain::ShardWindow> wrapped = pending_windows(s.log);
  ASSERT_EQ(wrapped[0].start, 40u);
  ASSERT_EQ(wrapped[0].entries.size(), 50u);
  ASSERT_TRUE(wrapped[1].entries.empty());
  ASSERT_TRUE(drainer.final_drain());
  auto chunk1 = read_file(drain::chunk_path(prefix, 1));
  ASSERT_TRUE(chunk1.has_value());
  EXPECT_EQ(*chunk1, drain::serialize_chunk(*s.log.header(), wrapped, 1));
  EXPECT_FALSE(file_exists(drain::chunk_path(prefix, 2)));

  auto p = StreamAnalyzer::analyze(prefix);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->stats.entries, 90u);
  remove_session(prefix);
}

TEST(Drain, TornChunkRewriteIsCleanAndNextChunkIsWhole) {
  // drain.chunk.torn writes half a chunk and kills the round. The resumed
  // drainer must rewrite the same seq with the clean bytes, and — since
  // only a prefix of the reused buffer was written — the chunk after it
  // must come out full-length.
  std::string prefix = tmp_prefix("tornbytes");
  remove_session(prefix);
  SpillLog s(/*capacity=*/256, /*shards=*/2);
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  drain::Drainer drainer(&s.log, dopts);
  u64 counter = 0;

  record_calls(s.log, /*tid=*/3, 60, &counter);
  std::vector<drain::ShardWindow> first = pending_windows(s.log);
  std::string clean0 = drain::serialize_chunk(*s.log.header(), first, 0);
  {
    fault::ScopedFault torn("drain.chunk.torn");
    EXPECT_FALSE(drainer.final_drain());
  }
  auto torn0 = read_file(drain::chunk_path(prefix, 0));
  ASSERT_TRUE(torn0.has_value());
  EXPECT_LT(torn0->size(), clean0.size());
  EXPECT_FALSE(drain::parse_chunk(*torn0, nullptr, nullptr, nullptr));
  EXPECT_EQ(*torn0, clean0.substr(0, torn0->size()));

  ASSERT_TRUE(drainer.final_drain());  // resumes: same seq, clean bytes
  auto rewritten0 = read_file(drain::chunk_path(prefix, 0));
  ASSERT_TRUE(rewritten0.has_value());
  EXPECT_EQ(*rewritten0, clean0);

  record_calls(s.log, /*tid=*/3, 100, &counter);
  record_calls(s.log, /*tid=*/4, 20, &counter);
  std::vector<drain::ShardWindow> second = pending_windows(s.log);
  std::string clean1 = drain::serialize_chunk(*s.log.header(), second, 1);
  ASSERT_TRUE(drainer.final_drain());
  auto chunk1 = read_file(drain::chunk_path(prefix, 1));
  ASSERT_TRUE(chunk1.has_value());
  EXPECT_EQ(*chunk1, clean1);
  EXPECT_TRUE(drain::parse_chunk(*chunk1, nullptr, nullptr, nullptr));
  EXPECT_EQ(drainer.stats().chunks, 2u);
  EXPECT_EQ(drainer.stats().drained_entries, 180u);
  remove_session(prefix);
}

TEST(Drain, SoftwareCounterSessionWritesDeterministicChunkHeaders) {
  // A software-counter session stores header->counter continuously while
  // writers touch flags and tails. The drainer must not copy those live
  // words: every chunk header carries the snapshot taken at start(), with
  // counter, tail and dropped written as 0. (Under TSan this is also the
  // race regression for the old memcpy of the live header.)
  PatientWriters patient;
  std::string prefix = tmp_prefix("swcounter");
  remove_session(prefix);
  SpillLog s;
  s.log.header()->counter_mode = static_cast<u32>(CounterMode::kSoftware);
  CounterService counter(&s.log, CounterMode::kSoftware);
  counter.start();
  drain::DrainerOptions dopts;
  dopts.prefix = prefix;
  dopts.chunk_entries = 384;
  dopts.poll_interval_us = 100;
  drain::Drainer drainer(&s.log, dopts);
  ASSERT_TRUE(drainer.start());
  std::thread toggler([&] {
    for (int i = 0; i < 200; ++i) {
      s.log.set_active(i % 2 == 0);
      usleep(50);
    }
    s.log.set_active(true);
  });
  run_workload(s.log);
  toggler.join();
  ASSERT_TRUE(drainer.final_drain());
  counter.stop();
  ASSERT_GT(s.log.header()->counter.load(), 0u);

  EXPECT_EQ(drainer.stats().drained_entries, kTotalEntries);
  ASSERT_GT(drainer.stats().chunks, 1u);
  for (u32 seq = 0; seq < drainer.stats().chunks; ++seq) {
    auto raw = read_file(drain::chunk_path(prefix, seq));
    ASSERT_TRUE(raw.has_value());
    std::string_view payload;
    ASSERT_TRUE(drain::parse_chunk(*raw, nullptr, &payload, nullptr));
    LogHeader h;
    std::memcpy(static_cast<void*>(&h), payload.data(), sizeof(LogHeader));
    EXPECT_EQ(h.magic, kLogMagic) << seq;
    EXPECT_EQ(h.pid, 1u) << seq;
    EXPECT_EQ(h.counter_mode, static_cast<u32>(CounterMode::kSoftware)) << seq;
    EXPECT_EQ(h.counter.load(), 0u) << seq;
    EXPECT_EQ(h.tail.load(), 0u) << seq;
    EXPECT_EQ(h.dropped.load(), 0u) << seq;
    EXPECT_EQ(h.flags.load() & (log_flags::kActive | log_flags::kSpillDrain), 0u)
        << seq;
  }
  ASSERT_TRUE(s.log.write_compact(prefix + ".log"));
  std::string err;
  auto streamed = analyzer::StreamAnalyzer::analyze(prefix, &err);
  ASSERT_TRUE(streamed.has_value()) << err;
  EXPECT_EQ(streamed->stats.entries, kTotalEntries);
  remove_session(prefix);
}

TEST(Drain, ChunkPathFormat) {
  EXPECT_EQ(drain::chunk_path("run", 0), "run.seg.0000");
  EXPECT_EQ(drain::chunk_path("run", 42), "run.seg.0042");
  EXPECT_EQ(drain::chunk_path("/a/b", 12345), "/a/b.seg.12345");
}

TEST(Drain, InitRejectsIllegalSpillCombos) {
  std::vector<u8> buf(ProfileLog::bytes_for(1024, 2));
  ProfileLog log;
  // Spill excludes ring (two incompatible reclaim policies)...
  EXPECT_FALSE(log.init(buf.data(), buf.size(), 1,
                        log_flags::kSpillDrain | log_flags::kRingBuffer, 2));
  // ...and a log always has a shard directory, where the drain cursors live.
  EXPECT_FALSE(log.init(buf.data(), buf.size(), 1, log_flags::kSpillDrain, 0));
  // The legal combinations initialize, down to the single shared tail.
  EXPECT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kSpillDrain, 2));
  EXPECT_TRUE(log.spill());
  EXPECT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kSpillDrain, 1));
  EXPECT_TRUE(log.spill());
  // A drainer refuses a non-spill log.
  std::vector<u8> plain(ProfileLog::bytes_for(1024, 2));
  ProfileLog plain_log;
  ASSERT_TRUE(plain_log.init(plain.data(), plain.size(), 1, 0, 2));
  drain::Drainer d(&plain_log, {});
  EXPECT_FALSE(d.start());
}

}  // namespace
}  // namespace teeperf
