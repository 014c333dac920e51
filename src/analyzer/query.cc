#include "analyzer/query.h"

#include <algorithm>
#include <numeric>

#include "common/stringutil.h"

namespace teeperf::analyzer {

static u64 sort_value(const Invocation& row, SortKey key) {
  switch (key) {
    case SortKey::kInclusive: return row.inclusive();
    case SortKey::kExclusive: return row.exclusive();
    case SortKey::kStart: return row.start;
    case SortKey::kDepth: return row.depth;
    case SortKey::kCallsMade: return row.calls_made;
  }
  return 0;
}

RowAggregate::RowAggregate(KeyFn group_key, usize top_k, SortKey sort)
    : group_key_(std::move(group_key)), top_k_(top_k), sort_(sort) {}

bool RowAggregate::before(const Invocation& a, const Invocation& b) const {
  u64 va = sort_value(a, sort_), vb = sort_value(b, sort_);
  if (va != vb) return va > vb;
  return a.shard != b.shard ? a.shard < b.shard : a.seq < b.seq;
}

void RowAggregate::add(const Invocation& row) {
  ++count_;
  inclusive_ += row.inclusive();
  exclusive_ += row.exclusive();
  max_inclusive_ = std::max(max_inclusive_, row.inclusive());
  if (group_key_) {
    std::string k = group_key_(row);
    RowGroup& g = groups_[k];
    if (g.count == 0) g.key = std::move(k);
    ++g.count;
    g.inclusive_total += row.inclusive();
    g.exclusive_total += row.exclusive();
  }
  // A heap whose top is the last kept row: a new row displaces it when it
  // comes before it.
  if (top_k_ == 0 || (heap_.size() == top_k_ && !before(row, heap_.front()))) return;
  auto cmp = [this](const Invocation& a, const Invocation& b) { return before(a, b); };
  if (heap_.size() == top_k_) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    heap_.pop_back();
  }
  heap_.push_back(row);
  std::push_heap(heap_.begin(), heap_.end(), cmp);
}

std::vector<RowGroup> RowAggregate::groups() const {
  std::vector<RowGroup> out;
  for (const auto& kv : groups_) out.push_back(kv.second);  // in key order
  std::stable_sort(out.begin(), out.end(), [](const RowGroup& a, const RowGroup& b) {
    return a.exclusive_total > b.exclusive_total;
  });
  return out;
}

std::vector<Invocation> RowAggregate::top() const {
  std::vector<Invocation> out = heap_;
  std::sort(out.begin(), out.end(),
            [this](const Invocation& a, const Invocation& b) { return before(a, b); });
  return out;
}

std::string rows_text(std::span<const Invocation> rows, usize total, usize limit,
                      MethodNames& name) {
  std::string out = str_format("%-48s %6s %5s %14s %14s %9s\n", "method", "tid",
                               "depth", "inclusive", "exclusive", "complete");
  for (usize i = 0; i < rows.size() && i < limit; ++i) {
    const Invocation& r = rows[i];
    out += str_format("%-48s %6llu %5u %14llu %14llu %9s\n",
                      ellipsize(name(r.method), 48).c_str(),
                      static_cast<unsigned long long>(r.tid), r.depth,
                      static_cast<unsigned long long>(r.inclusive()),
                      static_cast<unsigned long long>(r.exclusive()),
                      r.complete ? "yes" : "no");
  }
  if (total > limit) out += str_format("... (%zu more rows)\n", total - limit);
  return out;
}

InvocationTable::InvocationTable() : session_(std::make_shared<const Session>()) {}

std::optional<InvocationTable> InvocationTable::collect(
    const std::function<std::optional<SessionInfo>(SpanConsumer&)>& feed) {
  // A shard's rows arrive in close order; each one's seq is its place.
  std::vector<std::vector<Invocation>> shards;
  InvocationStream stream([&](const Invocation& row) {
    if (shards.size() <= row.shard) shards.resize(row.shard + 1);
    std::vector<Invocation>& part = shards[row.shard];
    if (part.size() <= row.seq) part.resize(row.seq + 1);
    part[row.seq] = row;
  });
  auto info = feed(stream);
  if (!info) return std::nullopt;
  auto s = std::make_shared<Session>();
  s->recon = stream.finish();
  s->thread_count = stream.thread_count();
  s->symbols = std::move(info->symbols);
  s->ns_per_tick = info->ns_per_tick;
  // Method ids and tids mean the same thing in every shard (same process,
  // same address space), so only the parent indices need rebasing.
  for (std::vector<Invocation>& part : shards) {
    i64 base = static_cast<i64>(s->rows.size());
    for (Invocation& row : part) {
      if (row.parent >= 0) row.parent += base;
    }
    s->rows.insert(s->rows.end(), part.begin(), part.end());
    part = {};
  }
  std::vector<usize> all(s->rows.size());
  std::iota(all.begin(), all.end(), usize{0});
  return InvocationTable(std::move(s), std::move(all));
}

std::optional<InvocationTable> InvocationTable::load(const std::string& prefix) {
  return collect([&](SpanConsumer& out) { return walk_session(prefix, out); });
}

InvocationTable InvocationTable::from_log(const ProfileLog& log,
                                          std::unordered_map<u64, std::string> symbols,
                                          double ns_per_tick) {
  if (!log.valid()) return InvocationTable();
  return *collect([&](SpanConsumer& out) {
    feed_log(log, out);
    return SessionInfo{std::move(symbols),
                       ns_per_tick != 0.0 ? ns_per_tick : log.header()->ns_per_tick};
  });
}

InvocationTable InvocationTable::filter(
    const std::function<bool(const Invocation&)>& pred) const {
  std::vector<usize> kept;
  for (usize r : rows_) {
    if (pred(session_->rows[r])) kept.push_back(r);
  }
  return InvocationTable(session_, std::move(kept));
}

InvocationTable InvocationTable::where_method(u64 method) const {
  return filter([method](const Invocation& i) { return i.method == method; });
}

InvocationTable InvocationTable::where_name_contains(const std::string& needle) const {
  MethodNames name(symbols());
  return filter([&](const Invocation& i) {
    return name(i.method).find(needle) != std::string::npos;
  });
}

InvocationTable InvocationTable::where_tid(u64 tid) const {
  return filter([tid](const Invocation& i) { return i.tid == tid; });
}

InvocationTable InvocationTable::where_depth_between(u32 lo, u32 hi) const {
  return filter([lo, hi](const Invocation& i) { return i.depth >= lo && i.depth <= hi; });
}

InvocationTable InvocationTable::where_min_inclusive(u64 ticks) const {
  return filter([ticks](const Invocation& i) { return i.inclusive() >= ticks; });
}

InvocationTable InvocationTable::complete_only() const {
  return filter([](const Invocation& i) { return i.complete; });
}

InvocationTable InvocationTable::where_called_under(u64 ancestor_method) const {
  const auto& all = session_->rows;
  return filter([&all, ancestor_method](const Invocation& i) {
    for (i64 p = i.parent; p >= 0; p = all[static_cast<usize>(p)].parent) {
      if (all[static_cast<usize>(p)].method == ancestor_method) return true;
    }
    return false;
  });
}

InvocationTable InvocationTable::sort_by(SortKey key, bool descending) const {
  std::vector<usize> sorted = rows_;
  const auto& all = session_->rows;
  std::stable_sort(sorted.begin(), sorted.end(), [&](usize a, usize b) {
    u64 va = sort_value(all[a], key), vb = sort_value(all[b], key);
    return descending ? va > vb : va < vb;
  });
  return InvocationTable(session_, std::move(sorted));
}

InvocationTable InvocationTable::top(usize n) const {
  std::vector<usize> head(rows_.begin(),
                          rows_.begin() + static_cast<isize>(std::min(n, rows_.size())));
  return InvocationTable(session_, std::move(head));
}

RowAggregate InvocationTable::aggregate(RowAggregate::KeyFn key_fn) const {
  RowAggregate agg(std::move(key_fn));
  for (usize r : rows_) agg.add(session_->rows[r]);
  return agg;
}

std::vector<InvocationTable::Group> InvocationTable::group_by(
    const RowAggregate::KeyFn& key_fn) const {
  return aggregate(key_fn).groups();
}

std::vector<InvocationTable::Group> InvocationTable::group_by_method() const {
  MethodNames name(symbols());
  return group_by([&](const Invocation& i) { return name(i.method); });
}

std::vector<InvocationTable::Group> InvocationTable::group_by_tid() const {
  return group_by([](const Invocation& i) {
    return str_format("tid=%llu", static_cast<unsigned long long>(i.tid));
  });
}

std::vector<InvocationTable::Group> InvocationTable::group_by_method_and_tid() const {
  MethodNames name(symbols());
  return group_by([&](const Invocation& i) {
    return str_format("tid=%llu %s", static_cast<unsigned long long>(i.tid),
                      name(i.method).c_str());
  });
}

std::vector<InvocationTable::Group> InvocationTable::group_by_caller() const {
  MethodNames name(symbols());
  return group_by([&](const Invocation& i) {
    return i.depth == 0 ? std::string("<root>") : name(i.caller);
  });
}

std::string InvocationTable::to_string(usize limit) const {
  std::vector<Invocation> shown;
  for (usize i = 0; i < rows_.size() && i < limit; ++i) shown.push_back(row(i));
  MethodNames name(symbols());
  return rows_text(shown, rows_.size(), limit, name);
}

}  // namespace teeperf::analyzer
