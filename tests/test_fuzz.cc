// Property/fuzz tests: the analyzer must accept *any* byte-legal log —
// adversarial event orders, truncations, garbage — without crashing, and
// its outputs must satisfy structural invariants on every input.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/rng.h"
#include "core/log_format.h"

namespace teeperf::analyzer {
namespace {

// Shared invariants every reconstruction must satisfy, whatever the input.
// `check_spans` additionally asserts child-within-parent time containment,
// which only holds when input counters are per-thread monotonic.
void check_invariants(const InvocationTable& p, bool check_spans = true) {
  const auto& all = p.invocations();
  for (usize i = 0; i < all.size(); ++i) {
    const Invocation& inv = all[i];
    EXPECT_GE(inv.end, inv.start) << "invocation " << i;
    EXPECT_GE(inv.inclusive(), inv.exclusive()) << "invocation " << i;
    if (inv.parent >= 0) {
      const Invocation& parent = all[static_cast<usize>(inv.parent)];
      EXPECT_EQ(parent.tid, inv.tid) << "invocation " << i;
      EXPECT_EQ(parent.depth + 1, inv.depth) << "invocation " << i;
      EXPECT_LT(static_cast<usize>(inv.parent), i) << "invocation " << i;
      if (check_spans) {
        // A child lives within its parent's span.
        EXPECT_GE(inv.start, parent.start) << "invocation " << i;
        EXPECT_LE(inv.end, parent.end) << "invocation " << i;
      }
      EXPECT_EQ(parent.method, inv.caller) << "invocation " << i;
    } else {
      EXPECT_EQ(inv.depth, 0u) << "invocation " << i;
    }
  }
}

class FuzzLog {
 public:
  explicit FuzzLog(u64 capacity = 8192) {
    buf_.resize(ProfileLog::bytes_for(capacity));
    log_.init(buf_.data(), buf_.size(), 1, log_flags::kActive);
  }
  ProfileLog& log() { return log_; }

 private:
  std::vector<u8> buf_;
  ProfileLog log_;
};

class AdversarialEvents : public ::testing::TestWithParam<u64> {};

// Completely random events: kinds, addresses, tids, counters all arbitrary.
TEST_P(AdversarialEvents, ArbitraryStreamNeverBreaksInvariants) {
  Xorshift64 rng(GetParam());
  FuzzLog fuzz;
  usize n = 500 + rng.next_below(3000);
  for (usize i = 0; i < n; ++i) {
    fuzz.log().append(rng.next_bool() ? EventKind::kCall : EventKind::kReturn,
                      rng.next_below(8),       // tiny address space: collisions
                      rng.next_below(3),       // few threads
                      rng.next_below(100000)); // counters may go backwards
  }
  InvocationTable p = InvocationTable::from_log(fuzz.log(), {}, 1.0);
  check_invariants(p, /*check_spans=*/false);
  // Derived views must not crash either.
  (void)MergeableProfile::from_tree(StreamAnalyzer::analyze_log(fuzz.log(), {}, 1.0)).save();
}

// Well-formed nested streams with random truncation: the analyzer must
// close open frames and count them as incomplete, nothing more.
TEST_P(AdversarialEvents, TruncatedValidStreamOnlyIncomplete) {
  Xorshift64 rng(GetParam() ^ 0xabc);
  FuzzLog fuzz;

  // Generate a proper nested sequence per thread.
  struct ThreadGen {
    std::vector<u64> stack;
    u64 counter = 0;
  };
  ThreadGen threads[2];
  usize events = 1000 + rng.next_below(2000);
  for (usize i = 0; i < events; ++i) {
    usize t = rng.next_below(2);
    ThreadGen& g = threads[t];
    g.counter += 1 + rng.next_below(10);
    bool call = g.stack.empty() || (g.stack.size() < 20 && rng.next_bool(0.55));
    if (call) {
      u64 addr = 1 + rng.next_below(6);
      g.stack.push_back(addr);
      fuzz.log().append(EventKind::kCall, addr, t, g.counter);
    } else {
      u64 addr = g.stack.back();
      g.stack.pop_back();
      fuzz.log().append(EventKind::kReturn, addr, t, g.counter);
    }
  }

  // Truncate at a random point by rewinding the (single) shard's tail.
  u64 keep = rng.next_below(fuzz.log().size() + 1);
  fuzz.log().shard(0)->tail.store(keep, std::memory_order_relaxed);

  InvocationTable p = InvocationTable::from_log(fuzz.log(), {}, 1.0);
  check_invariants(p);
  EXPECT_EQ(p.recon_stats().stray_returns, 0u);
  EXPECT_EQ(p.recon_stats().mismatched_returns, 0u);
  EXPECT_EQ(p.recon_stats().unwound_frames, 0u);
}

// Balanced stream invariant: sum of root inclusive == sum of all exclusive
// per thread (time is partitioned exactly).
TEST_P(AdversarialEvents, ExclusivePartitionsRootTime) {
  Xorshift64 rng(GetParam() ^ 0x5151);
  FuzzLog fuzz;
  std::vector<u64> stack;
  u64 counter = 0;
  // One thread, strictly balanced: close everything at the end.
  for (int i = 0; i < 800; ++i) {
    counter += 1 + rng.next_below(20);
    if (stack.size() < 12 && (stack.empty() || rng.next_bool(0.55))) {
      u64 addr = 1 + rng.next_below(5);
      stack.push_back(addr);
      fuzz.log().append(EventKind::kCall, addr, 0, counter);
    } else {
      fuzz.log().append(EventKind::kReturn, stack.back(), 0, counter);
      stack.pop_back();
    }
  }
  while (!stack.empty()) {
    counter += 1;
    fuzz.log().append(EventKind::kReturn, stack.back(), 0, counter);
    stack.pop_back();
  }

  InvocationTable p = InvocationTable::from_log(fuzz.log(), {}, 1.0);
  check_invariants(p);
  u64 root_inclusive = 0, all_exclusive = 0;
  for (const auto& inv : p.invocations()) {
    if (inv.parent < 0) root_inclusive += inv.inclusive();
    all_exclusive += inv.exclusive();
  }
  EXPECT_EQ(root_inclusive, all_exclusive);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdversarialEvents,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// --- validate() ---------------------------------------------------------------

TEST(Validate, CleanLogHasNoIssues) {
  FuzzLog fuzz;
  fuzz.log().append(EventKind::kCall, 1, 0, 10);
  fuzz.log().append(EventKind::kReturn, 1, 0, 20);
  EXPECT_TRUE(validate(fuzz.log()).empty());
}

TEST(Validate, DetectsNonMonotonicCounter) {
  FuzzLog fuzz;
  fuzz.log().append(EventKind::kCall, 1, 0, 100);
  fuzz.log().append(EventKind::kReturn, 1, 0, 50);  // goes backwards
  auto issues = validate(fuzz.log());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, ValidationIssue::Kind::kNonMonotonicCounter);
  EXPECT_EQ(issues[0].entry_index, 1u);
}

TEST(Validate, CountersIndependentPerThread) {
  FuzzLog fuzz;
  fuzz.log().append(EventKind::kCall, 1, 0, 100);
  fuzz.log().append(EventKind::kCall, 1, 1, 5);  // other thread: fine
  fuzz.log().append(EventKind::kReturn, 1, 0, 110);
  fuzz.log().append(EventKind::kReturn, 1, 1, 6);
  EXPECT_TRUE(validate(fuzz.log()).empty());
}

TEST(Validate, DetectsUnbalancedThread) {
  FuzzLog fuzz;
  fuzz.log().append(EventKind::kCall, 1, 0, 10);
  fuzz.log().append(EventKind::kCall, 2, 0, 20);
  fuzz.log().append(EventKind::kReturn, 2, 0, 30);
  auto issues = validate(fuzz.log());
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, ValidationIssue::Kind::kUnbalancedThread);
}

TEST(Validate, DetectsZeroAddress) {
  FuzzLog fuzz;
  fuzz.log().append(EventKind::kCall, 0, 0, 10);
  fuzz.log().append(EventKind::kReturn, 0, 0, 20);
  auto issues = validate(fuzz.log());
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].kind, ValidationIssue::Kind::kZeroAddress);
}

// On a live ring log, entry_index points into snapshot_ordered(): shard by
// shard, each window oldest first — also when both windows wrap.
TEST(Validate, EntryIndexFollowsSnapshotOrderOnWrappedShards) {
  std::vector<u8> buf(ProfileLog::bytes_for(8, 2));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kRingBuffer, 2));
  // Six entries per 4-slot shard: each window wraps and keeps the newest
  // four. Thread 0's counter goes backwards at its fifth entry, which sits
  // in shard 0's second span: ahead of shard 1's entries in snapshot order.
  for (u64 i = 0; i < 6; ++i) {
    EventKind kind = i % 2 == 0 ? EventKind::kCall : EventKind::kReturn;
    ASSERT_TRUE(log.append(kind, 0x10, 0, i == 4 ? 1 : 100 + i));
    ASSERT_TRUE(log.append(kind, 0x20, 1, 200 + i));
  }
  ASSERT_FALSE(log.window(0).spans[1].empty());
  ASSERT_FALSE(log.window(1).spans[1].empty());

  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  auto issues = validate(log);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, ValidationIssue::Kind::kNonMonotonicCounter);
  EXPECT_EQ(issues[0].tid, 0u);
  ASSERT_LT(issues[0].entry_index, ordered.size());
  EXPECT_EQ(ordered[issues[0].entry_index].tid, 0u);
  EXPECT_EQ(ordered[issues[0].entry_index].counter(), 1u);
  EXPECT_EQ(validate(ordered.data(), ordered.size())[0].entry_index,
            issues[0].entry_index);
}

// --- merging sessions (multi-process profiling) ------------------------------

class MergeSessionsTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = make_temp_dir("teeperf_merge_"); }
  void TearDown() override { remove_tree(dir_); }

  // Streams a dump with one method named `name` taking `ticks`.
  MergeableProfile session(const std::string& stem, const std::string& name,
                           u64 ticks) {
    FuzzLog fuzz;
    fuzz.log().append(EventKind::kCall, 1, 0, 100);
    fuzz.log().append(EventKind::kReturn, 1, 0, 100 + ticks);
    fuzz.log().header()->ns_per_tick = 1.0;
    std::string prefix = dir_ + "/" + stem;
    fuzz.log().write_compact(prefix + ".log");
    write_file(prefix + ".sym", "1\t" + name + "\n");
    std::string err;
    auto m = StreamAnalyzer::analyze(prefix, &err);
    EXPECT_TRUE(m.has_value()) << err;
    return m ? *m : MergeableProfile{};
  }

  std::string dir_;
};

TEST_F(MergeSessionsTest, KeepsProcessesApartByName) {
  // Both dumps use method id 1, for different functions: aggregates are
  // keyed by name, so the merge keeps the two apart.
  MergeableProfile merged = session("a", "proc_a::fn", 50);
  ASSERT_TRUE(merged.merge(session("b", "proc_b::fn", 70)));
  EXPECT_EQ(merged.sessions, 2u);
  EXPECT_EQ(merged.stats.thread_count, 2u);
  EXPECT_EQ(merged.stats.entries, 4u);
  ASSERT_EQ(merged.methods.size(), 2u);
  EXPECT_EQ(merged.methods.at("proc_a::fn").inclusive_total, 50u);
  EXPECT_EQ(merged.methods.at("proc_b::fn").inclusive_total, 70u);
}

TEST_F(MergeSessionsTest, SameNameAggregatesAcrossProcesses) {
  MergeableProfile merged = session("a", "shared::fn", 50);
  ASSERT_TRUE(merged.merge(session("b", "shared::fn", 70)));
  ASSERT_EQ(merged.methods.size(), 1u);
  EXPECT_EQ(merged.methods.at("shared::fn").count, 2u);
  EXPECT_EQ(merged.methods.at("shared::fn").inclusive_total, 120u);
}

}  // namespace
}  // namespace teeperf::analyzer
