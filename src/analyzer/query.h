// The declarative query interface (§II-C "Queries").
//
// The paper drops the user into an interactive pandas session over the
// decoded log. The C++ equivalent here is a small combinator API over the
// invocation table: filters, sorts, projections and grouped aggregations
// compose left-to-right and each step returns a new (cheap, index-based)
// table, e.g. "which thread called which method how often":
// InvocationTable::load(prefix)->group_by_method_and_tid().
//
// A table is collected from the invocation stream (fold.h) and owns its
// session's rows, shared by every table derived from it. Its scalar and
// grouped aggregates run through RowAggregate, the accumulator that
// teeperf_analyze feeds a session's streamed rows without holding them.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analyzer/fold.h"

namespace teeperf::analyzer {

enum class SortKey { kInclusive, kExclusive, kStart, kDepth, kCallsMade };

// Rows sharing a group key.
struct RowGroup {
  std::string key;
  usize count = 0;
  u64 inclusive_total = 0;
  u64 exclusive_total = 0;
};

// Bounded aggregates of rows fed one at a time: count and sums, groups by
// a key, and the first `top_k` rows by a sort key, largest first, ties in
// open order (shard, then seq): what sort_by(sort).top(top_k) of the
// collected table holds.
class RowAggregate {
 public:
  using KeyFn = std::function<std::string(const Invocation&)>;
  explicit RowAggregate(KeyFn group_key = {}, usize top_k = 0,
                        SortKey sort = SortKey::kInclusive);

  void add(const Invocation& row);

  usize count() const { return count_; }
  u64 sum_inclusive() const { return inclusive_; }
  u64 sum_exclusive() const { return exclusive_; }
  u64 max_inclusive() const { return max_inclusive_; }
  double mean_inclusive() const {
    return count_ ? static_cast<double>(inclusive_) / static_cast<double>(count_) : 0.0;
  }
  // By exclusive total, descending; ties in key order.
  std::vector<RowGroup> groups() const;
  // The kept rows, first first.
  std::vector<Invocation> top() const;

 private:
  bool before(const Invocation& a, const Invocation& b) const;

  KeyFn group_key_;
  usize top_k_;
  SortKey sort_;
  usize count_ = 0;
  u64 inclusive_ = 0;
  u64 exclusive_ = 0;
  u64 max_inclusive_ = 0;
  std::map<std::string, RowGroup> groups_;
  std::vector<Invocation> heap_;  // the kept rows, the last of them on top
};

// Renders up to `limit` rows for terminal inspection; `total` is the count
// of rows they were taken from, for the "... (n more rows)" line.
std::string rows_text(std::span<const Invocation> rows, usize total, usize limit,
                      MethodNames& name);

class InvocationTable {
 public:
  InvocationTable();  // no rows

  // Collects the rows of what `feed` gives its consumer (an
  // InvocationStream), each at its open position: shard by shard, each
  // shard's rows in open order, so a row's parent precedes it. `feed`
  // returns the session's names and tick rate, or nullopt when the session
  // does not load.
  static std::optional<InvocationTable> collect(
      const std::function<std::optional<SessionInfo>(SpanConsumer&)>& feed);
  // The session recorded at `prefix` (walk_session).
  static std::optional<InvocationTable> load(const std::string& prefix);
  // A live in-memory log (feed_log); a zero tick rate means the header's.
  static InvocationTable from_log(const ProfileLog& log,
                                  std::unordered_map<u64, std::string> symbols = {},
                                  double ns_per_tick = 0.0);

  // --- filters ------------------------------------------------------------
  InvocationTable filter(const std::function<bool(const Invocation&)>& pred) const;
  InvocationTable where_method(u64 method) const;
  // Substring match against the symbolized name.
  InvocationTable where_name_contains(const std::string& needle) const;
  InvocationTable where_tid(u64 tid) const;
  InvocationTable where_depth_between(u32 lo, u32 hi) const;
  InvocationTable where_min_inclusive(u64 ticks) const;
  InvocationTable complete_only() const;
  // Invocations whose (transitive) ancestry includes `method` — the
  // "performance depending on the call history of a method" query (§II-C).
  InvocationTable where_called_under(u64 ancestor_method) const;

  // --- ordering / slicing --------------------------------------------------
  InvocationTable sort_by(SortKey key, bool descending = true) const;
  InvocationTable top(usize n) const;

  // --- scalar aggregates ---------------------------------------------------
  usize count() const { return rows_.size(); }
  u64 sum_inclusive() const { return aggregate().sum_inclusive(); }
  u64 sum_exclusive() const { return aggregate().sum_exclusive(); }
  double mean_inclusive() const { return aggregate().mean_inclusive(); }
  u64 max_inclusive() const { return aggregate().max_inclusive(); }

  // --- grouped aggregates --------------------------------------------------
  using Group = RowGroup;
  // Groups rows by an arbitrary string key; groups come back sorted by
  // exclusive_total descending, ties in key order.
  std::vector<Group> group_by(const RowAggregate::KeyFn& key_fn) const;
  std::vector<Group> group_by_method() const;
  std::vector<Group> group_by_tid() const;
  std::vector<Group> group_by_method_and_tid() const;
  // Groups by the *caller's* name ("who spends time calling X").
  std::vector<Group> group_by_caller() const;

  // --- access ---------------------------------------------------------------
  const Invocation& row(usize i) const { return session_->rows[rows_[i]]; }
  // Every row of the session the table was collected from; parent indices
  // index it.
  const std::vector<Invocation>& invocations() const { return session_->rows; }
  const std::unordered_map<u64, std::string>& symbols() const { return session_->symbols; }
  const ReconstructionStats& recon_stats() const { return session_->recon; }
  u64 thread_count() const { return session_->thread_count; }
  double ns_per_tick() const { return session_->ns_per_tick; }
  double ticks_to_ns(u64 ticks) const {
    return analyzer::ticks_to_ns(ns_per_tick(), ticks);
  }
  // Human name for a method id (falls back to hex).
  std::string name(u64 method) const { return resolve_name(symbols(), method); }
  // Renders the table (up to `limit` rows) for terminal inspection.
  std::string to_string(usize limit = 20) const;

 private:
  struct Session {
    std::vector<Invocation> rows;
    std::unordered_map<u64, std::string> symbols;
    double ns_per_tick = 0.0;
    ReconstructionStats recon;
    u64 thread_count = 0;
  };
  InvocationTable(std::shared_ptr<const Session> session, std::vector<usize> rows)
      : session_(std::move(session)), rows_(std::move(rows)) {}
  RowAggregate aggregate(RowAggregate::KeyFn key_fn = {}) const;

  std::shared_ptr<const Session> session_;
  std::vector<usize> rows_;  // indices into session_->rows
};

}  // namespace teeperf::analyzer
