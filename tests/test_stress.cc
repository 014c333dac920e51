// Multithread stress for the v2 sharded/batched hot path (TESTING.md):
// 8 threads drive 100k nested calls each through the real probe path —
// runtime::on_enter / on_exit, exactly what -finstrument-functions invokes —
// into a Recorder with an 8-shard log. Asserts the lock-free invariants the
// design claims: zero lost entries, per-thread call/return balance and
// nesting sanity, per-thread counter monotonicity within each shard, and no
// torn slots. Run under ASan/UBSan and TSan in CI (the sanitize jobs build
// the whole tree instrumented).
#include <map>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/recorder.h"
#include "core/runtime.h"

namespace teeperf {
namespace {

constexpr int kThreads = 8;
constexpr u64 kCallsPerThread = 100'000;
constexpr int kDepth = 4;  // each "call" is one enter+exit pair, nested

TEST(ShardedStress, EightThreadsNoLossBalancedMonotonic) {
  RecorderOptions opts;
  opts.max_entries = 1ull << 21;  // 2M entries > 8 threads * 200k events
  opts.shards = kThreads;
  opts.counter_mode = CounterMode::kSteadyClock;
  opts.telemetry = false;
  auto rec = Recorder::create(opts);
  ASSERT_TRUE(rec);
  ASSERT_TRUE(rec->attach());
  ASSERT_EQ(rec->log().shard_count(), static_cast<u32>(kThreads));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      // Nested call pattern: enter kDepth fake functions, exit them, so the
      // reconstruction sees real stacks, not a flat event list. Addresses
      // are per-thread so cross-thread mixups would surface as imbalance.
      const u64 base = 0x10000ull * static_cast<u64>(t + 1);
      for (u64 i = 0; i < kCallsPerThread / kDepth; ++i) {
        for (int d = 0; d < kDepth; ++d) runtime::on_enter(base + d);
        for (int d = kDepth; d-- > 0;) runtime::on_exit(base + d);
      }
    });
  }
  for (auto& t : threads) t.join();
  rec->detach();

  const u64 expected = static_cast<u64>(kThreads) * kCallsPerThread * 2;
  Recorder::Stats stats = rec->stats();
  EXPECT_EQ(stats.entries, expected) << "lost entries";
  EXPECT_EQ(stats.attempted, expected);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.torn_tail, 0u);
  EXPECT_EQ(stats.shards, static_cast<u32>(kThreads));

  // Per-shard: tails only ever grew into their own segment (no shard ran
  // past capacity), and within a shard each thread's counters are strictly
  // ordered — the per-thread order guarantee the analyzer depends on.
  const ProfileLog& log = rec->log();
  u64 tail_sum = 0;
  for (u32 s = 0; s < log.shard_count(); ++s) {
    const LogShard* sh = log.shard(s);
    ASSERT_NE(sh, nullptr);
    u64 tail = sh->tail.load(std::memory_order_acquire);
    EXPECT_LE(tail, sh->capacity) << "shard " << s << " overflowed";
    EXPECT_EQ(sh->dropped.load(std::memory_order_relaxed), 0u);
    tail_sum += tail;

    std::vector<LogEntry> window;
    log.window(s).append_to(&window);
    ASSERT_EQ(window.size(), tail);
    std::map<u64, u64> last_counter;
    std::map<u64, i64> depth;
    for (const LogEntry& e : window) {
      EXPECT_EQ(log.shard_of(e.tid), s) << "entry landed in a foreign shard";
      auto it = last_counter.find(e.tid);
      if (it != last_counter.end()) {
        EXPECT_GE(e.counter(), it->second)
            << "counter went backwards within shard " << s;
      }
      last_counter[e.tid] = e.counter();
      depth[e.tid] += e.kind() == EventKind::kCall ? 1 : -1;
      EXPECT_GE(depth[e.tid], 0) << "return before call for tid " << e.tid;
      EXPECT_LE(depth[e.tid], kDepth);
    }
    for (const auto& [tid, d] : depth) {
      EXPECT_EQ(d, 0) << "unbalanced calls/returns for tid " << tid;
    }
  }
  EXPECT_EQ(tail_sum, expected);

  // Every thread contributed exactly its share.
  std::vector<LogEntry> all;
  log.snapshot_ordered(&all);
  ASSERT_EQ(all.size(), expected);
  std::map<u64, u64> per_tid;
  for (const LogEntry& e : all) ++per_tid[e.tid];
  EXPECT_EQ(per_tid.size(), static_cast<usize>(kThreads));
  for (const auto& [tid, n] : per_tid) {
    EXPECT_EQ(n, kCallsPerThread * 2) << "tid " << tid;
  }
}

TEST(ShardedStress, ConcurrentBatchesOnOneShard) {
  // Worst case for the batched reservation: more threads than shards, so
  // flushes from different threads interleave on the same tail. Entries may
  // interleave at batch granularity, but none may be lost or torn.
  std::vector<u8> buf(ProfileLog::bytes_for(1 << 18, 2));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kMultithread, 2));
  constexpr int kWriters = 8;
  constexpr u64 kPerWriter = 20'000;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      LogBatch batch;
      u64 tid = static_cast<u64>(w);
      for (u64 i = 0; i < kPerWriter; ++i) {
        ASSERT_TRUE(batch.record(log, i % 2 ? EventKind::kReturn : EventKind::kCall,
                                 0x5000 + tid, tid, i + 1));
      }
      ASSERT_TRUE(batch.flush(log));
    });
  }
  for (auto& t : writers) t.join();

  EXPECT_EQ(log.size(), kWriters * kPerWriter);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.count_torn_tail(~0ull), 0u);
  // Per-writer sequence order survives concurrent flushing to shared tails.
  std::vector<LogEntry> all;
  log.snapshot_ordered(&all);
  std::map<u64, u64> last;
  for (const LogEntry& e : all) {
    auto it = last.find(e.tid);
    if (it != last.end()) {
      EXPECT_GT(e.counter(), it->second);
    }
    last[e.tid] = e.counter();
  }
}

}  // namespace
}  // namespace teeperf
