// Tests for the TEE-Perf log format (§II-B, Figure 2): layout invariants,
// lock-free append, flag atomics, overflow behaviour, the per-shard window
// accessor, and the concurrent reservation property (every slot written
// exactly once). The fixture's log has one shard: the paper's single
// append-only array behind one shared tail.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/log_format.h"

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
