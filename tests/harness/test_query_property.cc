// Property tests for the analyzer query interface (src/analyzer/query.h):
// every combinator is checked against a brute-force reference computed
// directly from the collected rows (InvocationTable::invocations()), and
// the streaming accumulator (RowAggregate) against the table it stands in
// for, over many randomly generated (but
// seeded, deterministic) call/return logs. Catches drift between the
// indexed table implementation and the semantics it promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

#include "analyzer/query.h"
#include "common/rng.h"
#include "core/log_format.h"

namespace teeperf::analyzer {
namespace {

// A deterministic random workload: several threads making balanced (mostly)
// call/return sequences over a small method pool, so filters and groupings
// see real collisions. Some stacks are deliberately left open so
// complete_only() has something to cut.
std::vector<u8> make_random_log(u64 seed, ProfileLog* log) {
  std::vector<u8> buf(ProfileLog::bytes_for(4096));
  log->init(buf.data(), buf.size(), 1,
            log_flags::kActive | log_flags::kRecordCalls |
                log_flags::kRecordReturns);

  Xorshift64 rng(seed);
  constexpr u64 kMethods[] = {0x100, 0x200, 0x300, 0x400, 0x500, 0x600};
  const u64 num_threads = 1 + rng.next_below(3);
  std::vector<std::vector<u64>> stacks(static_cast<usize>(num_threads));
  u64 counter = 10;

  const u64 events = 80 + rng.next_below(120);
  for (u64 i = 0; i < events; ++i) {
    u64 tid = rng.next_below(num_threads);
    auto& stack = stacks[static_cast<usize>(tid)];
    counter += 1 + rng.next_below(50);
    bool do_call = stack.empty() || (stack.size() < 6 && rng.next_bool(0.55));
    if (do_call) {
      u64 m = kMethods[rng.next_below(6)];
      stack.push_back(m);
      log->append(EventKind::kCall, m, tid, counter);
    } else {
      log->append(EventKind::kReturn, stack.back(), tid, counter);
      stack.pop_back();
    }
  }
  // Close most (not all) open frames, so both complete and truncated
  // invocations exist.
  for (u64 tid = 0; tid < num_threads; ++tid) {
    auto& stack = stacks[static_cast<usize>(tid)];
    while (stack.size() > (tid == 0 ? 1u : 0u)) {
      counter += 1 + rng.next_below(50);
      log->append(EventKind::kReturn, stack.back(), tid, counter);
      stack.pop_back();
    }
  }
  return buf;
}

using Row = std::tuple<u64, u64, u64, u64, u32, bool>;
Row row_id(const Invocation& i) {
  return {i.method, i.tid, i.start, i.end, i.depth, i.complete};
}

std::vector<Row> rows_of(const InvocationTable& t) {
  std::vector<Row> out;
  for (usize i = 0; i < t.count(); ++i) out.push_back(row_id(t.row(i)));
  return out;
}

// Brute-force reference: plain loop over all invocations, keeping those
// that satisfy `pred`, in original order.
template <typename Pred>
std::vector<Row> brute_filter(const InvocationTable& p, Pred pred) {
  std::vector<Row> out;
  for (const Invocation& i : p.invocations()) {
    if (pred(i)) out.push_back(row_id(i));
  }
  return out;
}

class QueryPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(QueryPropertyTest, FiltersMatchBruteForce) {
  ProfileLog log;
  auto buf = make_random_log(GetParam(), &log);
  InvocationTable p = InvocationTable::from_log(log, {}, 1.0);
  ASSERT_FALSE(p.invocations().empty());
  InvocationTable t = p;
  EXPECT_EQ(t.count(), p.invocations().size());

  EXPECT_EQ(rows_of(t.where_method(0x200)),
            brute_filter(p, [](const Invocation& i) { return i.method == 0x200; }));
  EXPECT_EQ(rows_of(t.where_tid(1)),
            brute_filter(p, [](const Invocation& i) { return i.tid == 1; }));
  EXPECT_EQ(rows_of(t.where_depth_between(1, 3)),
            brute_filter(p, [](const Invocation& i) {
              return i.depth >= 1 && i.depth <= 3;
            }));
  EXPECT_EQ(rows_of(t.complete_only()),
            brute_filter(p, [](const Invocation& i) { return i.complete; }));

  u64 median_ticks = t.sort_by(SortKey::kInclusive)
                         .row(t.count() / 2)
                         .inclusive();
  EXPECT_EQ(rows_of(t.where_min_inclusive(median_ticks)),
            brute_filter(p, [median_ticks](const Invocation& i) {
              return i.inclusive() >= median_ticks;
            }));

  // Filters compose: each narrows the previous result.
  auto composed = t.where_tid(0).where_depth_between(0, 2).complete_only();
  EXPECT_EQ(rows_of(composed), brute_filter(p, [](const Invocation& i) {
              return i.tid == 0 && i.depth <= 2 && i.complete;
            }));
}

TEST_P(QueryPropertyTest, CalledUnderMatchesAncestryWalk) {
  ProfileLog log;
  auto buf = make_random_log(GetParam(), &log);
  InvocationTable p = InvocationTable::from_log(log, {}, 1.0);
  const auto& all = p.invocations();
  for (u64 ancestor : {u64{0x100}, u64{0x300}, u64{0x999}}) {
    auto expected = brute_filter(p, [&all, ancestor](const Invocation& i) {
      for (i64 q = i.parent; q >= 0; q = all[static_cast<usize>(q)].parent) {
        if (all[static_cast<usize>(q)].method == ancestor) return true;
      }
      return false;
    });
    EXPECT_EQ(rows_of(p.where_called_under(ancestor)), expected);
  }
}

TEST_P(QueryPropertyTest, SortAndTopMatchStableSortReference) {
  ProfileLog log;
  auto buf = make_random_log(GetParam(), &log);
  InvocationTable p = InvocationTable::from_log(log, {}, 1.0);
  const auto& all = p.invocations();

  for (SortKey key : {SortKey::kInclusive, SortKey::kExclusive, SortKey::kStart,
                      SortKey::kDepth, SortKey::kCallsMade}) {
    auto value = [key](const Invocation& i) -> u64 {
      switch (key) {
        case SortKey::kInclusive: return i.inclusive();
        case SortKey::kExclusive: return i.exclusive();
        case SortKey::kStart: return i.start;
        case SortKey::kDepth: return i.depth;
        case SortKey::kCallsMade: return i.calls_made;
      }
      return 0;
    };
    for (bool descending : {true, false}) {
      std::vector<usize> ref(all.size());
      for (usize i = 0; i < all.size(); ++i) ref[i] = i;
      std::stable_sort(ref.begin(), ref.end(), [&](usize a, usize b) {
        return descending ? value(all[a]) > value(all[b])
                          : value(all[a]) < value(all[b]);
      });
      std::vector<Row> expected;
      for (usize r : ref) expected.push_back(row_id(all[r]));

      auto sorted = p.sort_by(key, descending);
      EXPECT_EQ(rows_of(sorted), expected);

      // top(n) is a plain prefix, and never reads past the end.
      auto top3 = sorted.top(3);
      expected.resize(std::min<usize>(3, expected.size()));
      EXPECT_EQ(rows_of(top3), expected);
      EXPECT_EQ(sorted.top(all.size() + 100).count(), all.size());

      // RowAggregate keeps the same first rows from rows fed in any order:
      // here the reverse of the table's.
      if (descending) {
        RowAggregate agg({}, 3, key);
        for (auto it = all.rbegin(); it != all.rend(); ++it) agg.add(*it);
        std::vector<Row> kept;
        for (const Invocation& i : agg.top()) kept.push_back(row_id(i));
        EXPECT_EQ(kept, expected);
      }
    }
  }
}

TEST_P(QueryPropertyTest, ScalarAggregatesMatchBruteForce) {
  ProfileLog log;
  auto buf = make_random_log(GetParam(), &log);
  InvocationTable p = InvocationTable::from_log(log, {}, 1.0);
  InvocationTable t = p.where_depth_between(0, 2);

  u64 sum_inc = 0, sum_exc = 0, max_inc = 0;
  usize n = 0;
  for (const Invocation& i : p.invocations()) {
    if (i.depth > 2) continue;
    sum_inc += i.inclusive();
    sum_exc += i.exclusive();
    max_inc = std::max(max_inc, i.inclusive());
    ++n;
  }
  EXPECT_EQ(t.count(), n);
  EXPECT_EQ(t.sum_inclusive(), sum_inc);
  EXPECT_EQ(t.sum_exclusive(), sum_exc);
  EXPECT_EQ(t.max_inclusive(), max_inc);
  if (n > 0) {
    EXPECT_DOUBLE_EQ(t.mean_inclusive(),
                     static_cast<double>(sum_inc) / static_cast<double>(n));
  }

  // Exclusive never exceeds inclusive, and a parent's inclusive covers the
  // sum of its children — structural invariants the aggregates rely on.
  const auto& all = p.invocations();
  std::vector<u64> child_sum(all.size(), 0);
  for (const Invocation& i : all) {
    EXPECT_LE(i.exclusive(), i.inclusive());
    if (i.parent >= 0) {
      child_sum[static_cast<usize>(i.parent)] += i.inclusive();
    }
  }
  for (usize i = 0; i < all.size(); ++i) {
    if (all[i].complete) {
      EXPECT_LE(child_sum[i], all[i].inclusive());
    }
  }
}

TEST_P(QueryPropertyTest, GroupedAggregatesMatchBruteForce) {
  ProfileLog log;
  auto buf = make_random_log(GetParam(), &log);
  InvocationTable p = InvocationTable::from_log(log, {}, 1.0);
  const auto& all = p.invocations();

  struct Agg {
    usize count = 0;
    u64 inc = 0, exc = 0;
  };
  auto check = [&](const std::vector<InvocationTable::Group>& groups,
                   const std::map<std::string, Agg>& expected) {
    ASSERT_EQ(groups.size(), expected.size());
    // Order contract: non-increasing exclusive_total.
    for (usize i = 1; i < groups.size(); ++i) {
      EXPECT_GE(groups[i - 1].exclusive_total, groups[i].exclusive_total);
    }
    // Content contract: exact per-key aggregates (order-independent, since
    // ties may come back in any order).
    for (const auto& g : groups) {
      auto it = expected.find(g.key);
      ASSERT_NE(it, expected.end()) << "unexpected group " << g.key;
      EXPECT_EQ(g.count, it->second.count) << g.key;
      EXPECT_EQ(g.inclusive_total, it->second.inc) << g.key;
      EXPECT_EQ(g.exclusive_total, it->second.exc) << g.key;
    }
  };

  std::map<std::string, Agg> by_method, by_caller;
  for (const Invocation& i : all) {
    Agg& m = by_method[p.name(i.method)];
    ++m.count;
    m.inc += i.inclusive();
    m.exc += i.exclusive();
    std::string caller = i.parent < 0
                             ? "<root>"
                             : p.name(all[static_cast<usize>(i.parent)].method);
    Agg& c = by_caller[caller];
    ++c.count;
    c.inc += i.inclusive();
    c.exc += i.exclusive();
  }
  check(p.group_by_method(), by_method);
  check(p.group_by_caller(), by_caller);

  // Grouping partitions the table: totals across groups equal the table's.
  u64 grand_inc = 0;
  usize grand_count = 0;
  for (const auto& g : p.group_by_tid()) {
    grand_inc += g.inclusive_total;
    grand_count += g.count;
  }
  EXPECT_EQ(grand_count, all.size());
  EXPECT_EQ(grand_inc, p.sum_inclusive());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryPropertyTest,
                         ::testing::Range(u64{1}, u64{33}));

}  // namespace
}  // namespace teeperf::analyzer
