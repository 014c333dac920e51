// Tests for the analyzer (stage #3): call-stack reconstruction, timing
// attribution, defect tolerance, method statistics, call edges, folded
// stacks and the query interface.
#include <gtest/gtest.h>

#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/stringutil.h"
#include "core/log_format.h"

namespace teeperf::analyzer {
namespace {

// Builds an in-memory log from (kind, addr, tid, counter) tuples.
class LogBuilder {
 public:
  explicit LogBuilder(u64 capacity = 1024) {
    buf_.resize(ProfileLog::bytes_for(capacity));
    log_.init(buf_.data(), buf_.size(), 1, log_flags::kActive |
                                                log_flags::kRecordCalls |
                                                log_flags::kRecordReturns);
  }

  LogBuilder& call(u64 addr, u64 tid, u64 counter) {
    log_.append(EventKind::kCall, addr, tid, counter);
    return *this;
  }
  LogBuilder& ret(u64 addr, u64 tid, u64 counter) {
    log_.append(EventKind::kReturn, addr, tid, counter);
    return *this;
  }

  LogBuilder& raw(const LogEntry& e) {
    log_.append_batch(&e, 1, 0);
    return *this;
  }

  InvocationTable table(std::unordered_map<u64, std::string> symbols = {}) {
    return InvocationTable::from_log(log_, std::move(symbols), 1.0);
  }
  SessionTree tree(std::unordered_map<u64, std::string> symbols = {}) {
    return StreamAnalyzer::analyze_log(log_, std::move(symbols), 1.0);
  }
  MergeableProfile aggregate(std::unordered_map<u64, std::string> symbols = {}) {
    return MergeableProfile::from_tree(tree(std::move(symbols)));
  }

  // The same log through the streaming (path-tree) sink.
  MergeableProfile stream() {
    StreamAnalyzer sa;
    for (u32 s = 0; s < log_.shard_count(); ++s) {
      for (std::span<const LogEntry> sp : log_.window(s).spans) {
        sa.feed(s, sp.data(), sp.size());
      }
    }
    return sa.finish();
  }

 private:
  std::vector<u8> buf_;
  ProfileLog log_;
};

constexpr u64 A = 0x100, B = 0x200, C = 0x300;

TEST(Analyzer, SingleInvocation) {
  InvocationTable p = LogBuilder().call(A, 0, 10).ret(A, 0, 50).table();
  ASSERT_EQ(p.invocations().size(), 1u);
  const Invocation& inv = p.invocations()[0];
  EXPECT_EQ(inv.method, A);
  EXPECT_EQ(inv.inclusive(), 40u);
  EXPECT_EQ(inv.exclusive(), 40u);
  EXPECT_EQ(inv.depth, 0u);
  EXPECT_EQ(inv.parent, -1);
  EXPECT_TRUE(inv.complete);
  EXPECT_EQ(p.recon_stats().stray_returns, 0u);
}

TEST(Analyzer, NestedExclusiveSubtraction) {
  // A [10..100] calls B [20..60]: A exclusive = 90 - 40 = 50.
  InvocationTable p = LogBuilder()
                  .call(A, 0, 10)
                  .call(B, 0, 20)
                  .ret(B, 0, 60)
                  .ret(A, 0, 100)
                  .table();
  ASSERT_EQ(p.invocations().size(), 2u);
  const Invocation& a = p.invocations()[0];
  const Invocation& b = p.invocations()[1];
  EXPECT_EQ(a.method, A);
  EXPECT_EQ(a.inclusive(), 90u);
  EXPECT_EQ(a.exclusive(), 50u);
  EXPECT_EQ(a.calls_made, 1u);
  EXPECT_EQ(b.parent, 0);
  EXPECT_EQ(b.depth, 1u);
  EXPECT_EQ(b.inclusive(), 40u);
}

TEST(Analyzer, SiblingsAccumulateInParent) {
  InvocationTable p = LogBuilder()
                  .call(A, 0, 0)
                  .call(B, 0, 10)
                  .ret(B, 0, 20)
                  .call(C, 0, 30)
                  .ret(C, 0, 70)
                  .ret(A, 0, 100)
                  .table();
  const Invocation& a = p.invocations()[0];
  EXPECT_EQ(a.inclusive(), 100u);
  EXPECT_EQ(a.children, 50u);
  EXPECT_EQ(a.exclusive(), 50u);
  EXPECT_EQ(a.calls_made, 2u);
}

TEST(Analyzer, RecursionDepths) {
  InvocationTable p = LogBuilder()
                  .call(A, 0, 0)
                  .call(A, 0, 10)
                  .call(A, 0, 20)
                  .ret(A, 0, 30)
                  .ret(A, 0, 40)
                  .ret(A, 0, 50)
                  .table();
  ASSERT_EQ(p.invocations().size(), 3u);
  EXPECT_EQ(p.invocations()[0].depth, 0u);
  EXPECT_EQ(p.invocations()[1].depth, 1u);
  EXPECT_EQ(p.invocations()[2].depth, 2u);
  EXPECT_EQ(p.invocations()[0].exclusive(), 20u);  // 50 - 30 (child incl)
}

TEST(Analyzer, ThreadsReconstructIndependently) {
  InvocationTable p = LogBuilder()
                  .call(A, 0, 0)
                  .call(B, 1, 5)   // interleaved entries from another thread
                  .ret(A, 0, 10)
                  .ret(B, 1, 25)
                  .table();
  ASSERT_EQ(p.invocations().size(), 2u);
  EXPECT_EQ(p.thread_count(), 2u);
  for (const auto& inv : p.invocations()) {
    EXPECT_EQ(inv.depth, 0u);
    EXPECT_EQ(inv.parent, -1);
  }
}

TEST(Analyzer, StrayReturnCounted) {
  LogBuilder log;
  log.ret(A, 0, 10).call(B, 0, 20).ret(B, 0, 30);
  InvocationTable p = log.table();
  EXPECT_EQ(p.recon_stats().stray_returns, 1u);
  ASSERT_EQ(p.invocations().size(), 1u);
  EXPECT_EQ(p.invocations()[0].method, B);
  EXPECT_EQ(log.stream().stats, (MprofStats{3, 1, 0, 0, 0, 0, 1}));
}

TEST(Analyzer, MismatchedReturnIgnored) {
  LogBuilder log;
  log.call(A, 0, 0)
      .ret(C, 0, 10)  // C was never entered
      .ret(A, 0, 20);
  InvocationTable p = log.table();
  EXPECT_EQ(p.recon_stats().mismatched_returns, 1u);
  ASSERT_EQ(p.invocations().size(), 1u);
  EXPECT_EQ(p.invocations()[0].inclusive(), 20u);
  EXPECT_EQ(log.stream().stats, (MprofStats{3, 0, 1, 0, 0, 0, 1}));
}

TEST(Analyzer, MissingReturnUnwoundToMatch) {
  // A calls B; B's return was dropped (filtering/overflow); A returns.
  LogBuilder log;
  log.call(A, 0, 0).call(B, 0, 10).ret(A, 0, 50);
  InvocationTable p = log.table();
  ASSERT_EQ(p.invocations().size(), 2u);
  EXPECT_EQ(p.recon_stats().unwound_frames, 1u);
  // B force-closed at A's return counter.
  EXPECT_EQ(p.invocations()[1].end, 50u);
  EXPECT_EQ(log.stream().stats, (MprofStats{3, 0, 0, 1, 0, 0, 1}));
}

TEST(Analyzer, TruncatedLogClosesOpenFramesIncomplete) {
  LogBuilder log;
  log.call(A, 0, 0).call(B, 0, 30);
  InvocationTable p = log.table();
  ASSERT_EQ(p.invocations().size(), 2u);
  EXPECT_EQ(p.recon_stats().incomplete, 2u);
  EXPECT_FALSE(p.invocations()[0].complete);
  EXPECT_EQ(p.invocations()[1].end, 30u);  // last observed counter
  EXPECT_EQ(log.stream().stats, (MprofStats{2, 0, 0, 0, 2, 0, 1}));
}

TEST(Analyzer, TombstoneSkipped) {
  // An all-zero slot: reserved by a writer that died before filling it.
  LogBuilder log;
  log.call(A, 1, 0).raw(LogEntry{}).ret(A, 1, 10);
  InvocationTable p = log.table();
  EXPECT_EQ(p.recon_stats().tombstones, 1u);
  ASSERT_EQ(p.invocations().size(), 1u);
  EXPECT_EQ(p.invocations()[0].inclusive(), 10u);
  EXPECT_EQ(p.thread_count(), 1u);  // no phantom thread 0
  MergeableProfile m = log.stream();
  EXPECT_EQ(m.stats, (MprofStats{3, 0, 0, 0, 0, 1, 1}));
  EXPECT_EQ(m.methods.size(), 1u);  // no phantom method 0
}

TEST(Analyzer, BackwardsCounterClampsToZero) {
  // A broken time source: B returns before it was entered, and A's return
  // is older still. Durations clamp to zero instead of wrapping.
  LogBuilder log;
  log.call(A, 0, 100).call(B, 0, 120).ret(B, 0, 110).ret(A, 0, 90);
  InvocationTable p = log.table();
  ASSERT_EQ(p.invocations().size(), 2u);
  EXPECT_EQ(p.invocations()[0].end, 100u);
  EXPECT_EQ(p.invocations()[0].inclusive(), 0u);
  EXPECT_EQ(p.invocations()[1].inclusive(), 0u);
  EXPECT_EQ(p.invocations()[0].exclusive(), 0u);
  MergeableProfile m = log.stream();
  EXPECT_EQ(m.stats, (MprofStats{4, 0, 0, 0, 0, 0, 1}));
  ASSERT_EQ(m.methods.size(), 2u);
  for (const auto& [name, mm] : m.methods) {
    EXPECT_EQ(mm.count, 1u) << name;
    EXPECT_EQ(mm.inclusive_total, 0u) << name;
    EXPECT_EQ(mm.max_inclusive, 0u) << name;
  }
}

TEST(Analyzer, MethodStatsAggregatesAndSorts) {
  std::unordered_map<u64, std::string> syms{{A, "a"}, {B, "b"}};
  MergeableProfile m = LogBuilder()
                           .call(A, 0, 0)
                           .ret(A, 0, 10)
                           .call(A, 0, 20)
                           .ret(A, 0, 40)
                           .call(B, 0, 50)
                           .ret(B, 0, 51)
                           .aggregate(syms);
  ASSERT_EQ(m.methods.size(), 2u);
  EXPECT_EQ(m.methods.at("a"), (MprofMethod{A, 2, 30, 30, 10, 20}));
  EXPECT_EQ(m.methods.at("b"), (MprofMethod{B, 1, 1, 1, 1, 1}));
  // 30 ticks exclusive > B's 1: a is the first row.
  std::string r = method_report(m);
  EXPECT_LT(r.find("\na "), r.find("\nb ")) << r;
}

TEST(Analyzer, CallEdges) {
  MergeableProfile m = LogBuilder()
                           .call(A, 0, 0)
                           .call(B, 0, 1)
                           .ret(B, 0, 2)
                           .call(B, 0, 3)
                           .ret(B, 0, 4)
                           .ret(A, 0, 5)
                           .aggregate({{A, "a"}, {B, "b"}});
  ASSERT_EQ(m.edges.size(), 2u);
  EXPECT_EQ(m.edges.at(MprofEdgeKey{"a", "b", false}), (MprofEdge{2, 2}));
  EXPECT_EQ(m.edges.at(MprofEdgeKey{"", "a", true}), (MprofEdge{1, 5}));
  // By count: the a -> b edge first.
  std::string r = call_graph_report(m);
  EXPECT_LT(r.find("\na "), r.find("\n<root> ")) << r;
}

TEST(Analyzer, FoldedStacksSumToTotalTime) {
  std::unordered_map<u64, std::string> syms{{A, "a"}, {B, "b"}};
  MergeableProfile m = LogBuilder()
                           .call(A, 0, 0)
                           .call(B, 0, 20)
                           .ret(B, 0, 80)
                           .ret(A, 0, 100)
                           .aggregate(syms);
  std::vector<std::pair<std::string, u64>> folded(m.stacks.begin(), m.stacks.end());
  ASSERT_EQ(folded.size(), 2u);
  u64 total = 0;
  for (auto& [path, v] : folded) total += v;
  EXPECT_EQ(total, 100u);  // widths add to root wall time
  EXPECT_EQ(folded[0].first, "a");
  EXPECT_EQ(folded[0].second, 40u);
  EXPECT_EQ(folded[1].first, "a;b");
  EXPECT_EQ(folded[1].second, 60u);
}

TEST(Analyzer, HottestStack) {
  std::unordered_map<u64, std::string> syms{{A, "a"}, {B, "b"}};
  MergeableProfile p = LogBuilder()
                           .call(A, 0, 0)
                           .call(B, 0, 10)
                           .ret(B, 0, 90)
                           .ret(A, 0, 100)
                           .aggregate(syms);
  // 80 ticks at 1 ns each.
  EXPECT_EQ(hottest_report(p),
            "hottest stack (0.000 ms exclusive):\n  a;b\n");
  MergeableProfile m;
  m.stacks = {{"x", 7}, {"x;y", 2'500'000}, {"z", 2'500'000}};
  EXPECT_EQ(hottest_report(m),  // the first of the tied paths
            "hottest stack (2.500 ms exclusive):\n  x;y\n");
}

TEST(Analyzer, HottestStackEmptyProfile) {
  EXPECT_EQ(hottest_report(LogBuilder().aggregate()),
            "hottest stack (0.000 ms exclusive):\n  \n");
}

// Rows that tie on their sort key print in name order, whatever the
// method ids or the order the methods were first seen in.
TEST(Analyzer, BottomUpBreaksTiesByName) {
  constexpr u64 D = 0x400;
  std::unordered_map<u64, std::string> syms{
      {D, "tie::a"}, {B, "tie::b"}, {A, "tie::c"}};
  // tie::c [0..30] and tie::b [40..70] each call tie::a for 10 ticks:
  // every method has 20 exclusive ticks, tie::a's split 10/10 by caller.
  std::string r = bottom_up_report(LogBuilder()
                                       .call(A, 0, 0)
                                       .call(D, 0, 10)
                                       .ret(D, 0, 20)
                                       .ret(A, 0, 30)
                                       .call(B, 0, 40)
                                       .call(D, 0, 50)
                                       .ret(D, 0, 60)
                                       .ret(B, 0, 70)
                                       .tree(syms));
  usize a = r.find("\ntie::a ");
  usize b = r.find("\ntie::b ");
  usize c = r.find("\ntie::c ");
  ASSERT_NE(a, std::string::npos) << r;
  ASSERT_NE(b, std::string::npos) << r;
  ASSERT_NE(c, std::string::npos) << r;
  EXPECT_LT(a, b) << r;
  EXPECT_LT(b, c) << r;
  // tie::a's callers, 50% each.
  usize from_b = r.find("from tie::b", a);
  usize from_c = r.find("from tie::c", a);
  ASSERT_LT(from_c, b) << r;
  EXPECT_LT(from_b, from_c) << r;
}

TEST(Analyzer, TableReportsBreakTiesByName) {
  // Ids in the opposite order to names, equal exclusive time.
  std::unordered_map<u64, std::string> syms{{A, "tie::z"}, {B, "tie::y"}};
  MergeableProfile m = LogBuilder()
                           .call(A, 0, 0)
                           .ret(A, 0, 1'000'000)
                           .call(B, 0, 2'000'000)
                           .ret(B, 0, 3'000'000)
                           .aggregate(syms);
  for (const std::string& r : {method_report(m), gprof_flat_report(m)}) {
    EXPECT_LT(r.find("tie::y"), r.find("tie::z")) << r;
  }
  // Both methods gone in the after profile: equal |delta|.
  std::string diff = diff_report(m, MergeableProfile{});
  EXPECT_LT(diff.find("tie::y"), diff.find("tie::z")) << diff;
}

TEST(Analyzer, DiffReportSumsIdsSharingAName) {
  // Two ids symbolize to one name on both sides: the row is their sum.
  std::unordered_map<u64, std::string> syms{{A, "dup"}, {B, "dup"}};
  MergeableProfile before = LogBuilder()
                                .call(A, 0, 0)
                                .ret(A, 0, 1'000'000)
                                .call(B, 0, 2'000'000)
                                .ret(B, 0, 5'000'000)
                                .aggregate(syms);
  MergeableProfile after = LogBuilder()
                               .call(A, 0, 0)
                               .ret(A, 0, 500'000)
                               .call(B, 0, 1'000'000)
                               .ret(B, 0, 2'000'000)
                               .aggregate(syms);
  std::string diff = diff_report(before, after);
  EXPECT_NE(diff.find(str_format("%-44s %12.3f %12.3f %+12.3f %9d %9d\n", "dup",
                                 4.0, 1.5, -2.5, 2, 2)),
            std::string::npos)
      << diff;
}

TEST(Analyzer, NameFallsBackToHex) {
  InvocationTable p = LogBuilder().call(0xdead, 0, 0).ret(0xdead, 0, 1).table();
  EXPECT_EQ(p.name(0xdead), "0xdead");
}

TEST(Analyzer, EmptyLog) {
  EXPECT_TRUE(LogBuilder().table().invocations().empty());
  MergeableProfile m = LogBuilder().aggregate();
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.stacks.empty());
}

// ---- query interface --------------------------------------------------------

class QueryTest : public ::testing::Test {
 protected:
  QueryTest() {
    std::unordered_map<u64, std::string> syms{{A, "alpha"}, {B, "beta"}, {C, "gamma"}};
    LogBuilder log;
    log.call(A, 0, 0)
        .call(B, 0, 10)
        .ret(B, 0, 30)
        .call(B, 0, 40)
        .ret(B, 0, 45)
        .ret(A, 0, 100)
        .call(C, 1, 0)
        .call(B, 1, 5)
        .ret(B, 1, 15)
        .ret(C, 1, 50);
    table_ = log.table(syms);
    agg_ = log.aggregate(syms);
  }
  InvocationTable table_;
  MergeableProfile agg_;
};

TEST_F(QueryTest, CountAll) {
  EXPECT_EQ(table_.count(), 5u);
}

TEST_F(QueryTest, WhereMethod) {
  auto t = table_.where_method(B);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_EQ(t.sum_inclusive(), 20u + 5u + 10u);
}

TEST_F(QueryTest, WhereNameContains) {
  EXPECT_EQ(table_.where_name_contains("bet").count(), 3u);
  EXPECT_EQ(table_.where_name_contains("zzz").count(), 0u);
}

TEST_F(QueryTest, WhereTid) {
  EXPECT_EQ(table_.where_tid(1).count(), 2u);
}

TEST_F(QueryTest, WhereDepth) {
  EXPECT_EQ(table_.where_depth_between(1, 9).count(), 3u);
}

TEST_F(QueryTest, WhereCalledUnder) {
  // "which B invocations happened underneath C" — the call-history query.
  auto t = table_.where_method(B).where_called_under(C);
  ASSERT_EQ(t.count(), 1u);
  EXPECT_EQ(t.row(0).tid, 1u);
}

TEST_F(QueryTest, SortAndTop) {
  auto t = table_.sort_by(SortKey::kInclusive).top(2);
  ASSERT_EQ(t.count(), 2u);
  EXPECT_EQ(t.row(0).inclusive(), 100u);
  EXPECT_EQ(t.row(1).inclusive(), 50u);
}

TEST_F(QueryTest, SortAscending) {
  auto t = table_.sort_by(SortKey::kInclusive, false);
  EXPECT_EQ(t.row(0).inclusive(), 5u);
}

TEST_F(QueryTest, GroupByMethod) {
  auto groups = table_.group_by_method();
  ASSERT_EQ(groups.size(), 3u);
  // alpha: exclusive = 100 - 25 = 75, the largest.
  EXPECT_EQ(groups[0].key, "alpha");
  EXPECT_EQ(groups[0].exclusive_total, 75u);
}

TEST_F(QueryTest, GroupByMethodAndTid) {
  // "which thread called which method how often" (§II-C).
  auto groups = table_.where_method(B).group_by_method_and_tid();
  ASSERT_EQ(groups.size(), 2u);
  usize total = 0;
  for (auto& g : groups) total += g.count;
  EXPECT_EQ(total, 3u);
}

TEST_F(QueryTest, GroupByCaller) {
  auto groups = table_.where_method(B).group_by_caller();
  ASSERT_EQ(groups.size(), 2u);  // alpha and gamma both call beta
}

TEST_F(QueryTest, MeanAndMax) {
  auto t = table_.where_method(B);
  EXPECT_DOUBLE_EQ(t.mean_inclusive(), 35.0 / 3.0);
  EXPECT_EQ(t.max_inclusive(), 20u);
}

TEST_F(QueryTest, ToStringRendersRows) {
  std::string s = table_.to_string(3);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST_F(QueryTest, Reports) {
  const MergeableProfile& agg = agg_;
  std::string m = method_report(agg);
  EXPECT_NE(m.find("alpha"), std::string::npos);
  EXPECT_NE(m.find("excl%"), std::string::npos);
  std::string g = call_graph_report(agg);
  EXPECT_NE(g.find("<root>"), std::string::npos);
  std::string r = mprof_summary(agg);
  EXPECT_NE(r.find("entries=10"), std::string::npos);
}

}  // namespace
}  // namespace teeperf::analyzer
