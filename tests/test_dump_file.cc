// The block reader for `.log` dumps (analyzer/fold.h feed_dump_file) held
// to the in-memory parser (analyzer/dump_reader.h parse_dump): over every
// corpus file, over torn and bit-flipped ring dumps, and over windows that
// end on, before and after a block boundary, both must accept or reject
// alike and hand a consumer the same entries, span by span in the same
// shard-major order, with the same stream cursors and tick rate. Plus the
// short-read rule.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/dump_reader.h"
#include "analyzer/fold.h"
#include "common/fileutil.h"
#include "core/log_format.h"
#include "faultsim/fault.h"
#include "synthetic_session.h"

namespace teeperf {
namespace {

using analyzer::DumpFeed;
using analyzer::kDumpBlockEntries;
using analyzer::ShardSpan;
using analyzer::SpillStitcher;

std::string corpus_dir() {
  const char* dir = std::getenv("TEEPERF_CORPUS_DIR");
  return dir && *dir ? dir : "tests/corpus";
}

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "teeperf_dump_file_" + name + "." +
         std::to_string(getpid());
}

// Everything a consumer was handed, in arrival order: per span its shard
// and its entries' words.
struct Recorded final : analyzer::SpanConsumer {
  std::vector<u32> span_shards;
  std::vector<u64> span_sizes;
  std::vector<u64> words;  // shard, then the entry's four words
  void consume(std::span<const ShardSpan> spans) override {
    for (const ShardSpan& sp : spans) {
      span_shards.push_back(sp.shard);
      span_sizes.push_back(sp.n);
      for (u64 i = 0; i < sp.n; ++i) {
        const LogEntry& e = sp.entries[i];
        words.insert(words.end(), {sp.shard, e.kind_and_counter, e.addr, e.tid, e.reserved});
      }
    }
  }
};

// One reader's outcome on one dump.
struct Outcome {
  bool accepted = false;
  std::vector<u64> words;        // entries in feed order
  std::vector<u32> shard_order;  // distinct shards in feed order
  std::vector<u64> cursors;      // per shard, after the dump
  double ns_per_tick = 0.0;
};

void finish(const SpillStitcher& st, const Recorded& rec, usize shards, Outcome* out) {
  out->words = rec.words;
  for (u32 s : rec.span_shards) {
    if (out->shard_order.empty() || out->shard_order.back() != s) {
      out->shard_order.push_back(s);
    }
  }
  for (usize s = 0; s < shards; ++s) out->cursors.push_back(st.cursor(s));
  out->ns_per_tick = st.ns_per_tick();
}

// `prior`, if any, is a chunk payload absorbed first by both readers.
Outcome in_memory(const std::string& bytes, const std::string* prior = nullptr) {
  Outcome out;
  SpillStitcher st;
  std::vector<ShardSpan> spans;
  if (prior) {
    auto pd = analyzer::parse_dump(*prior);
    EXPECT_TRUE(pd && st.absorb(*pd, &spans));
  }
  auto pd = analyzer::parse_dump(bytes);
  if (!pd || !st.absorb(*pd, &spans)) return out;
  Recorded rec;
  rec.consume(spans);
  out.accepted = true;
  finish(st, rec, pd->shards.size(), &out);
  return out;
}

Outcome from_file(const std::string& bytes, const std::string* prior = nullptr) {
  Outcome out;
  SpillStitcher st;
  std::vector<ShardSpan> spans;
  if (prior) {
    auto pd = analyzer::parse_dump(*prior);
    EXPECT_TRUE(pd && st.absorb(*pd, &spans));
  }
  std::string path = tmp_path("diff");
  EXPECT_TRUE(write_file(path, bytes));
  Recorded rec;
  DumpFeed r = analyzer::feed_dump_file(path, st, rec);
  std::remove(path.c_str());
  EXPECT_NE(r, DumpFeed::kShortRead);
  EXPECT_NE(r, DumpFeed::kMissing);
  if (r != DumpFeed::kOk) {
    EXPECT_TRUE(rec.words.empty()) << "a rejected dump fed entries";
    return out;
  }
  out.accepted = true;
  usize shards = 0;
  if (auto layout = analyzer::dump_layout(bytes, bytes.size())) {
    shards = layout->windows.size();
  }
  finish(st, rec, shards, &out);
  for (u64 n : rec.span_sizes) EXPECT_LE(n, kDumpBlockEntries);
  return out;
}

void expect_same(const std::string& bytes, const std::string* prior = nullptr) {
  Outcome mem = in_memory(bytes, prior);
  Outcome file = from_file(bytes, prior);
  ASSERT_EQ(file.accepted, mem.accepted);
  if (!mem.accepted) return;
  EXPECT_EQ(file.words, mem.words);
  EXPECT_EQ(file.shard_order, mem.shard_order);
  EXPECT_EQ(file.cursors, mem.cursors);
  EXPECT_EQ(file.ns_per_tick, mem.ns_per_tick);
}

std::vector<std::string> corpus_logs() {
  std::vector<std::string> names;
  DIR* d = opendir(corpus_dir().c_str());
  if (!d) return names;
  while (dirent* entry = readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".log") == 0) {
      names.push_back(name);
    }
  }
  closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

// A log of `per_shard[s]` entries in shard s (one thread per shard, a
// bounded log sized to hold them all), as written_dump would write it.
std::string bounded_dump(const std::vector<u64>& per_shard) {
  u64 most = *std::max_element(per_shard.begin(), per_shard.end());
  u32 shards = static_cast<u32>(per_shard.size());
  std::vector<u8> buf(ProfileLog::bytes_for(std::max<u64>(most, 1) * shards, shards));
  ProfileLog log;
  EXPECT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kMultithread, shards));
  for (u32 s = 0; s < shards; ++s) {
    SyntheticThread thread(s);
    for (u64 i = 0; i < per_shard[s]; ++i) {
      LogEntry e = thread.next();
      EXPECT_TRUE(log.append(e.kind(), e.addr, e.tid, e.counter()));
    }
  }
  log.header()->ns_per_tick = 1.5;
  std::string path = tmp_path("bounded");
  EXPECT_TRUE(log.write_compact(path));
  std::string bytes = read_file(path).value_or(std::string());
  std::remove(path.c_str());
  return bytes;
}

std::string ring_dump_bytes(u64 capacity) {
  std::string prefix = tmp_path("ring");
  write_ring_dump(prefix, capacity);
  std::string bytes = read_file(prefix + ".log").value_or(std::string());
  std::remove((prefix + ".log").c_str());
  return bytes;
}

TEST(DumpFile, CorpusMatchesParseDump) {
  std::vector<std::string> names = corpus_logs();
  ASSERT_GE(names.size(), 10u);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    auto bytes = read_file(corpus_dir() + "/" + name);
    ASSERT_TRUE(bytes.has_value());
    expect_same(*bytes);
  }
}

TEST(DumpFile, TornAndBitflippedRingDumpsMatchParseDump) {
  // Two shards of 12,291 entries: each window spans two blocks and wraps.
  const std::string ring = ring_dump_bytes(3 * kDumpBlockEntries + 6);
  ASSERT_FALSE(ring.empty());
  expect_same(ring);
  for (const char* point : {"dump.torn:nth=1", "dump.bitflip:nth=1"}) {
    for (u64 seed = 1; seed <= 32; ++seed) {
      SCOPED_TRACE(std::string(point) + " seed " + std::to_string(seed));
      fault::Registry::instance().reset();
      fault::Registry::instance().set_seed(seed);
      fault::Registry::instance().arm_from_spec(point);
      std::string mutant = ring;
      ASSERT_TRUE(fault::apply_byte_faults("dump", &mutant));
      fault::Registry::instance().reset();
      expect_same(mutant);
    }
  }
}

TEST(DumpFile, BlockBoundariesMatchParseDump) {
  const u64 b = kDumpBlockEntries;
  for (u64 n : {b - 1, b, b + 1, 2 * b, 2 * b + 1}) {
    SCOPED_TRACE("one window of " + std::to_string(n));
    expect_same(bounded_dump({n}));
  }
  // Empty shards between and after full ones.
  expect_same(bounded_dump({b + 1, 0, b - 1, 0}));
  expect_same(bounded_dump({0, 0}));
  // A wrapped ring window, its start cursor mid-stream.
  std::string ring = ring_dump_bytes(2 * (b + 1));
  expect_same(ring);
  // Cut mid-entry, and mid-entry right after a block boundary.
  const std::string whole = bounded_dump({b + 3, 5});
  for (usize cut : {usize{5}, usize{17}, usize{32 * 4 + 17}, usize{32 * 8 + 1}}) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    expect_same(whole.substr(0, whole.size() - cut));
  }
}

TEST(DumpFile, StitchedOverlapSkipsTheSameEntries) {
  // A chunk that already persisted the first 100 entries of shard 0's
  // window: the dump's overlapping prefix is skipped by both readers.
  const u64 n0 = kDumpBlockEntries + 37;
  const std::string dump = bounded_dump({n0, 40});
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  std::vector<drain::ShardWindow> chunk(2);
  SyntheticThread thread(0);
  for (int i = 0; i < 100; ++i) chunk[0].entries.push_back(thread.next());
  std::string prior =
      drain::serialize_chunk(session, chunk, 0).substr(sizeof(drain::ChunkFrame));
  Outcome mem = in_memory(dump, &prior);
  ASSERT_TRUE(mem.accepted);
  EXPECT_EQ(mem.words.size(), 5 * (n0 - 100 + 40));
  expect_same(dump, &prior);
}

// A consumer that shrinks the file under the reader after the first block.
struct Shrinker final : analyzer::SpanConsumer {
  std::string path;
  u64 entries = 0;
  void consume(std::span<const ShardSpan> spans) override {
    for (const ShardSpan& sp : spans) entries += sp.n;
    EXPECT_EQ(truncate(path.c_str(), 4096), 0);
  }
};

TEST(DumpFile, ShortReadFailsWithoutAPartialBlock) {
  std::string path = tmp_path("shrink");
  ASSERT_TRUE(write_file(path, bounded_dump({3 * kDumpBlockEntries})));
  Shrinker shrink;
  shrink.path = path;
  SpillStitcher st;
  EXPECT_EQ(analyzer::feed_dump_file(path, st, shrink), DumpFeed::kShortRead);
  EXPECT_EQ(shrink.entries, kDumpBlockEntries);
  std::remove(path.c_str());

  SpillStitcher none;
  Recorded rec;
  EXPECT_EQ(analyzer::feed_dump_file(path, none, rec), DumpFeed::kMissing);
}

TEST(DumpFile, WalkSessionReportsAShortRead) {
  std::string prefix = tmp_path("walk");
  ASSERT_TRUE(write_file(prefix + ".log", bounded_dump({3 * kDumpBlockEntries})));
  Shrinker shrink;
  shrink.path = prefix + ".log";
  std::string error;
  EXPECT_FALSE(analyzer::walk_session(prefix, shrink, &error).has_value());
  EXPECT_EQ(error, "short read of dump");
  std::remove((prefix + ".log").c_str());
}

}  // namespace
}  // namespace teeperf
