// Tests for the TEE-Perf log format (§II-B, Figure 2): layout invariants,
// lock-free append, flag atomics, overflow behaviour, the per-shard window
// accessor, and the concurrent reservation property (every slot written
// exactly once). The fixture's log has one shard: the paper's single
// append-only array behind one shared tail.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/fileutil.h"
#include "core/log_format.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"
#include "written_dump.h"

namespace teeperf {
namespace {

TEST(LogFormat, LayoutInvariants) {
  EXPECT_EQ(sizeof(LogEntry), 32u);
  EXPECT_EQ(sizeof(LogHeader), 128u);
  EXPECT_EQ(sizeof(LogHeader) % alignof(LogEntry), 0u);
}

TEST(LogFormat, EntryPackRoundTrip) {
  for (u64 counter : {0ull, 1ull, 123456789ull, (1ull << 62)}) {
    LogEntry e;
    e.kind_and_counter = LogEntry::pack(EventKind::kCall, counter);
    EXPECT_EQ(e.kind(), EventKind::kCall);
    EXPECT_EQ(e.counter(), counter);
    e.kind_and_counter = LogEntry::pack(EventKind::kReturn, counter);
    EXPECT_EQ(e.kind(), EventKind::kReturn);
    EXPECT_EQ(e.counter(), counter);
  }
}

class ProfileLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    buf_.resize(ProfileLog::bytes_for(64));
    ASSERT_TRUE(log_.init(buf_.data(), buf_.size(), 1234,
                          log_flags::kActive | log_flags::kRecordCalls |
                              log_flags::kRecordReturns));
  }
  std::vector<u8> buf_;
  ProfileLog log_;
};

TEST_F(ProfileLogTest, InitSetsHeader) {
  const LogHeader* h = log_.header();
  EXPECT_EQ(h->magic, kLogMagic);
  EXPECT_EQ(h->version, kLogVersionSharded);
  EXPECT_EQ(h->pid, 1234u);
  EXPECT_EQ(h->max_entries, 64u);
  ASSERT_EQ(log_.shard_count(), 1u);
  EXPECT_EQ(log_.shard(0)->capacity, 64u);
  EXPECT_EQ(log_.shard(0)->tail.load(), 0u);
  EXPECT_NE(h->profiler_anchor, 0u);
  EXPECT_TRUE(log_.active());
}

TEST_F(ProfileLogTest, InitRejectsTinyBuffer) {
  ProfileLog small;
  u8 tiny[64];
  EXPECT_FALSE(small.init(tiny, sizeof tiny, 1, 0));
  EXPECT_FALSE(small.valid());
}

TEST_F(ProfileLogTest, InitRejectsZeroShards) {
  ProfileLog other;
  EXPECT_FALSE(other.init(buf_.data(), buf_.size(), 1, 0, /*shard_count=*/0));
  EXPECT_FALSE(other.valid());
}

TEST_F(ProfileLogTest, AppendWritesEntry) {
  ASSERT_TRUE(log_.append(EventKind::kCall, 0xabc, 7, 100));
  ASSERT_EQ(log_.size(), 1u);
  const LogEntry& e = log_.window(0)[0];
  EXPECT_EQ(e.kind(), EventKind::kCall);
  EXPECT_EQ(e.addr, 0xabcu);
  EXPECT_EQ(e.tid, 7u);
  EXPECT_EQ(e.counter(), 100u);
}

TEST_F(ProfileLogTest, AppendStopsAtCapacity) {
  for (u64 i = 0; i < 64; ++i) {
    EXPECT_TRUE(log_.append(EventKind::kCall, i, 0, i));
  }
  EXPECT_FALSE(log_.append(EventKind::kCall, 99, 0, 99));
  EXPECT_EQ(log_.size(), 64u);
  EXPECT_EQ(log_.dropped(), 1u);
  // Size stays clamped even though the tail keeps advancing.
  EXPECT_FALSE(log_.append(EventKind::kReturn, 100, 0, 100));
  EXPECT_EQ(log_.size(), 64u);
  EXPECT_EQ(log_.dropped(), 2u);
}

TEST_F(ProfileLogTest, FlagToggles) {
  EXPECT_TRUE(log_.active());
  log_.set_active(false);
  EXPECT_FALSE(log_.active());
  log_.set_active(true);
  EXPECT_TRUE(log_.active());

  log_.set_flags(log_flags::kMultithread, log_flags::kRecordReturns);
  EXPECT_TRUE(log_.flags() & log_flags::kMultithread);
  EXPECT_FALSE(log_.flags() & log_flags::kRecordReturns);
  EXPECT_TRUE(log_.flags() & log_flags::kRecordCalls);
}

TEST_F(ProfileLogTest, AdoptExistingLog) {
  log_.append(EventKind::kCall, 0x1, 0, 10);
  log_.append(EventKind::kReturn, 0x1, 0, 20);

  ProfileLog other;
  ASSERT_TRUE(other.adopt(buf_.data(), buf_.size()));
  EXPECT_EQ(other.size(), 2u);
  EXPECT_EQ(other.window(0)[1].kind(), EventKind::kReturn);
  EXPECT_EQ(other.header()->pid, 1234u);
}

TEST_F(ProfileLogTest, AdoptRejectsBadMagic) {
  log_.header()->magic = 0x1111;
  ProfileLog other;
  EXPECT_FALSE(other.adopt(buf_.data(), buf_.size()));
}

TEST_F(ProfileLogTest, AdoptRejectsBadVersion) {
  // 1 is the old single-tail layout: a read-only dump format now, never a
  // live region.
  for (u32 version : {1u, 99u}) {
    log_.header()->version = version;
    ProfileLog other;
    EXPECT_FALSE(other.adopt(buf_.data(), buf_.size())) << version;
  }
}

TEST_F(ProfileLogTest, AdoptRejectsTruncatedBuffer) {
  ProfileLog other;
  // Claim more entries than the buffer holds.
  log_.header()->max_entries = 10'000;
  EXPECT_FALSE(other.adopt(buf_.data(), buf_.size()));
}

// --- ring-buffer mode ---------------------------------------------------------

TEST(RingLog, WrapsInsteadOfDropping) {
  std::vector<u8> buf(ProfileLog::bytes_for(8));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kRingBuffer));
  for (u64 i = 0; i < 20; ++i) {
    EXPECT_TRUE(log.append(EventKind::kCall, 100 + i, 0, i));
  }
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.size(), 8u);  // capacity-clamped view

  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  ASSERT_EQ(ordered.size(), 8u);
  // The newest 8 entries (12..19) survive, oldest-first.
  for (u64 i = 0; i < 8; ++i) {
    EXPECT_EQ(ordered[i].addr, 100 + 12 + i);
    EXPECT_EQ(ordered[i].counter(), 12 + i);
  }

  // The window is [tail - capacity, tail) = [12, 20): cursors 12..15 sit at
  // slots 4..7, and 16..19 wrapped to slots 0..3.
  LogWindow w = log.window(0);
  EXPECT_EQ(w.begin, 12u);
  EXPECT_EQ(w.end, 20u);
  ASSERT_EQ(w.spans[0].size(), 4u);
  ASSERT_EQ(w.spans[1].size(), 4u);
  EXPECT_EQ(w.spans[0][0].addr, 112u);
  EXPECT_EQ(w.spans[1][0].addr, 116u);
  for (u64 i = 0; i < w.size(); ++i) EXPECT_EQ(w[i].addr, ordered[i].addr);

  // A suffix copy skips into the second span when the first is used up.
  std::vector<LogEntry> newest;
  w.append_to(&newest, 6);
  ASSERT_EQ(newest.size(), 2u);
  EXPECT_EQ(newest[0].addr, 118u);
  EXPECT_EQ(newest[1].addr, 119u);
}

TEST(RingLog, SnapshotBeforeWrapIsPlainOrder) {
  std::vector<u8> buf(ProfileLog::bytes_for(8));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kRingBuffer));
  for (u64 i = 0; i < 5; ++i) log.append(EventKind::kCall, i, 0, i);
  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  ASSERT_EQ(ordered.size(), 5u);
  EXPECT_EQ(ordered[0].addr, 0u);
  EXPECT_EQ(ordered[4].addr, 4u);
}

TEST(RingLog, NonRingSnapshotMatchesEntries) {
  std::vector<u8> buf(ProfileLog::bytes_for(8));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kActive));
  for (u64 i = 0; i < 12; ++i) log.append(EventKind::kCall, i, 0, i);
  EXPECT_EQ(log.dropped(), 4u);
  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  EXPECT_EQ(ordered.size(), 8u);
  EXPECT_EQ(ordered[7].addr, 7u);

  // A bounded window is one span, [0, capacity), however far the tail ran.
  LogWindow w = log.window(0);
  EXPECT_EQ(w.begin, 0u);
  EXPECT_EQ(w.end, 8u);
  EXPECT_TRUE(w.spans[1].empty());
}

TEST(LogWindowTest, ShardsKeepTheirOwnWindows) {
  // Two shards of 4 slots each; tid 1 writes shard 1 only. The windows do
  // not see each other's slots, and out-of-range shards read as empty.
  std::vector<u8> buf(ProfileLog::bytes_for(8, 2));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kActive, 2));
  for (u64 i = 0; i < 3; ++i) log.append(EventKind::kCall, 0x10 + i, 1, i);
  EXPECT_EQ(log.window(0).size(), 0u);
  LogWindow w = log.window(1);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[0].addr, 0x10u);
  EXPECT_EQ(w[2].addr, 0x12u);
  EXPECT_EQ(log.window(2).size(), 0u);
  EXPECT_EQ(log.size(), 3u);
}

// --- compact dump writer ----------------------------------------------------

// The compact dump built as one in-memory string: the staging form that
// ProfileLog::write_compact replaced, kept here as the reference its bytes
// are checked against.
std::string reference_serialize_compact(const ProfileLog& log) {
  std::string out;
  const LogHeader* header = log.header();
  if (!header) return out;
  LogHeader header_copy;
  std::memcpy(static_cast<void*>(&header_copy), header, sizeof(LogHeader));
  header_copy.flags.store(
      log.flags() & ~(log_flags::kRingBuffer | log_flags::kSpillDrain),
      std::memory_order_relaxed);
  header_copy.counter_replicas = 0;
  u32 nshards = header->shard_count;
  std::vector<LogWindow> windows(nshards);
  std::vector<LogShard> dir(nshards);
  u64 total = 0;
  for (u32 s = 0; s < nshards; ++s) {
    windows[s] = log.window(s);
    u64 n = windows[s].size();
    dir[s].entry_offset = total;
    dir[s].capacity = n;
    dir[s].tail.store(n, std::memory_order_relaxed);
    dir[s].dropped.store(log.shard(s)->dropped.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    dir[s].drained.store(windows[s].begin, std::memory_order_relaxed);
    total += n;
  }
  header_copy.max_entries = total;
  out.reserve(sizeof(LogHeader) + nshards * sizeof(LogShard) +
              static_cast<usize>(total) * sizeof(LogEntry));
  out.assign(reinterpret_cast<const char*>(&header_copy), sizeof(LogHeader));
  out.append(reinterpret_cast<const char*>(dir.data()),
             static_cast<usize>(nshards) * sizeof(LogShard));
  for (const LogWindow& w : windows) {
    for (std::span<const LogEntry> sp : w.spans) {
      out.append(reinterpret_cast<const char*>(sp.data()),
                 sp.size() * sizeof(LogEntry));
    }
  }
  return out;
}

// A log over its own buffer.
struct OwnedLog {
  std::vector<u8> buf;
  ProfileLog log;
  OwnedLog(u64 capacity, u32 shards, u64 flags)
      : buf(ProfileLog::bytes_for(capacity, shards)) {
    EXPECT_TRUE(log.init(buf.data(), buf.size(), 77,
                         log_flags::kActive | log_flags::kMultithread | flags,
                         shards));
  }
  // `n` alternating calls and returns from `tid`, each entry distinct.
  void record(u64 tid, u64 n) {
    for (u64 i = 0; i < n; ++i) {
      log.append(i % 2 ? EventKind::kReturn : EventKind::kCall,
                 0x400000 + (tid << 12) + i, tid, 1000 + i);
    }
  }
};

TEST(ProfileLog, WrittenDumpMatchesReference) {
  {
    SCOPED_TRACE("bounded, 1 shard, overflowed");
    OwnedLog o(64, 1, 0);
    o.record(0, 70);
    ASSERT_EQ(o.log.dropped(), 6u);
    EXPECT_EQ(written_dump(o.log), reference_serialize_compact(o.log));
  }
  {
    SCOPED_TRACE("4 shards, two of them empty");
    OwnedLog o(64, 4, 0);
    o.record(1, 9);
    o.record(3, 16);
    ASSERT_EQ(o.log.window(0).size(), 0u);
    ASSERT_EQ(o.log.window(2).size(), 0u);
    EXPECT_EQ(written_dump(o.log), reference_serialize_compact(o.log));
  }
  {
    SCOPED_TRACE("wrapped ring");
    OwnedLog o(16, 2, log_flags::kRingBuffer);
    o.record(0, 21);
    o.record(1, 5);
    ASSERT_FALSE(o.log.window(0).spans[1].empty());  // two spans
    EXPECT_EQ(written_dump(o.log), reference_serialize_compact(o.log));
  }
  {
    SCOPED_TRACE("spill residue after a partial drain, unpublished tail");
    OwnedLog o(16, 1, log_flags::kSpillDrain);
    o.record(0, 10);
    o.log.shard(0)->drained.store(10, std::memory_order_release);
    o.record(0, 12);
    o.log.shard(0)->tail.fetch_add(2, std::memory_order_acq_rel);
    LogWindow w = o.log.window(0);
    ASSERT_EQ(w.begin, 10u);
    ASSERT_EQ(w.end, 24u);
    ASSERT_FALSE(w.spans[1].empty());
    EXPECT_EQ(written_dump(o.log), reference_serialize_compact(o.log));
  }
  {
    SCOPED_TRACE("bounded, tombstoned tail");
    OwnedLog o(64, 1, 0);
    o.record(0, 8);
    o.log.shard(0)->tail.fetch_add(3, std::memory_order_acq_rel);
    ASSERT_EQ(o.log.count_torn_tail(), 3u);
    EXPECT_EQ(written_dump(o.log), reference_serialize_compact(o.log));
  }
  {
    SCOPED_TRACE("invalid log");
    ProfileLog invalid;
    EXPECT_EQ(written_dump(invalid), "");
    EXPECT_EQ(reference_serialize_compact(invalid), "");
  }
}

TEST(ProfileLog, WrittenDumpFaultsMatchReference) {
  // The byte faults hit the written file the way they hit the reference
  // string: same draws, same bytes, for every seed.
  OwnedLog o(16, 2, log_flags::kRingBuffer);
  o.record(0, 21);
  o.record(1, 5);
  const std::string reference = reference_serialize_compact(o.log);
  const std::string path = testing::TempDir() + "teeperf_faulted_dump." +
                           std::to_string(getpid());
  fault::Registry& reg = fault::Registry::instance();
  auto arm = [&reg](u64 seed, const std::string& spec) {
    reg.reset();
    reg.set_seed(seed);
    ASSERT_TRUE(reg.arm_from_spec(spec));
  };
  for (const std::string point :
       {fault_points::kDumpTorn, fault_points::kDumpBitflip}) {
    std::string spec = point + ":nth=1";
    for (u64 seed = 1; seed <= 32; ++seed) {
      SCOPED_TRACE(spec + " seed " + std::to_string(seed));
      arm(seed, spec);
      ASSERT_TRUE(o.log.write_compact(path));
      EXPECT_TRUE(
          fault::apply_byte_faults_to_file(fault_points::kDumpPrefix, path));
      std::string faulted = read_file(path).value_or("");

      arm(seed, spec);
      std::string want = reference;
      EXPECT_TRUE(fault::apply_byte_faults(fault_points::kDumpPrefix, &want));
      EXPECT_EQ(faulted, want);
      EXPECT_NE(faulted, reference);
    }
  }
  reg.reset();
  reg.set_seed(1);
  std::remove(path.c_str());
}

TEST(ProfileLog, WriteCompactFailsOnShortWriteOrCloseError) {
  // A dump that fits the stdio buffer fails at fclose; a larger one fails
  // at a short fwrite. Both must fail the write, as must a bad path.
  OwnedLog small(64, 1, 0);
  small.record(0, 8);
  EXPECT_FALSE(small.log.write_compact("/dev/full"));
  OwnedLog large(8192, 1, 0);
  large.record(0, 8192);
  EXPECT_FALSE(large.log.write_compact("/dev/full"));
  EXPECT_FALSE(small.log.write_compact(testing::TempDir() +
                                       "teeperf_no_such_dir/x.log"));
}

// Property: under concurrent appends, every slot 0..capacity-1 is written
// exactly once and no entry is torn (each writer uses a distinct addr).
TEST(ProfileLogConcurrency, EverySlotWrittenOnce) {
  constexpr u64 kCapacity = 32768;
  constexpr int kThreads = 8;
  std::vector<u8> buf(ProfileLog::bytes_for(kCapacity));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1, log_flags::kActive));

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      // Each thread writes until the log is full; addr encodes the writer
      // and a per-thread sequence number.
      u64 i = 0;
      while (log.append(EventKind::kCall, (static_cast<u64>(t) << 32) | i,
                        static_cast<u64>(t), i)) {
        ++i;
      }
    });
  }
  for (auto& th : threads) th.join();

  ASSERT_EQ(log.size(), kCapacity);
  // Per-writer sequence numbers must appear in order when filtered by tid
  // (per-thread ordering is the log's contract).
  LogWindow w = log.window(0);
  ASSERT_EQ(w.size(), kCapacity);
  u64 next_seq[kThreads] = {};
  for (u64 s = 0; s < kCapacity; ++s) {
    const LogEntry& e = w[s];
    u64 writer = e.addr >> 32;
    u64 seq = e.addr & 0xffffffffull;
    ASSERT_LT(writer, static_cast<u64>(kThreads));
    EXPECT_EQ(e.tid, writer);
    EXPECT_EQ(seq, next_seq[writer]) << "slot " << s;
    ++next_seq[writer];
  }
  u64 total = 0;
  for (u64 n : next_seq) total += n;
  EXPECT_EQ(total, kCapacity);
}

}  // namespace
}  // namespace teeperf
