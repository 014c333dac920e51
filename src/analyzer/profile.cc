#include "analyzer/profile.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "analyzer/fold.h"
#include "common/stringutil.h"
#include "core/symbol_registry.h"

namespace teeperf::analyzer {

std::optional<Profile> Profile::load_bytes(
    std::string_view log_bytes, std::unordered_map<u64, std::string> symbols) {
  auto dump = parse_dump(log_bytes);
  if (!dump) return std::nullopt;
  SpillStitcher one;  // a single dump: nothing to deduplicate
  std::vector<ShardSpan> spans;
  one.absorb(*dump, &spans);
  SessionFold<InvocationSink> fold;
  fold.consume(spans);
  return from_fold(fold, std::move(symbols), dump->ns_per_tick);
}

std::optional<Profile> Profile::load(const std::string& prefix) {
  SessionFold<InvocationSink> fold;
  auto info = walk_session(prefix, fold);
  if (!info) return std::nullopt;
  return from_fold(fold, std::move(info->symbols), info->ns_per_tick);
}

Profile Profile::from_log(const ProfileLog& log,
                          std::unordered_map<u64, std::string> symbols,
                          double ns_per_tick) {
  if (!log.valid()) return Profile{};
  if (ns_per_tick == 0.0) ns_per_tick = log.header()->ns_per_tick;
  SessionFold<InvocationSink> fold;
  feed_log(log, fold);
  return from_fold(fold, std::move(symbols), ns_per_tick);
}

Profile Profile::from_fold(SessionFold<InvocationSink>& fold,
                           std::unordered_map<u64, std::string> symbols,
                           double ns_per_tick) {
  Profile p;
  p.symbols_ = std::move(symbols);
  p.ns_per_tick_ = ns_per_tick;
  p.recon_ = fold.close_all();
  p.thread_count_ = fold.thread_count();
  // Method ids and tids mean the same thing in every shard (same process,
  // same address space), so — unlike load_many's cross-process rekeying —
  // only the parent indices need rebasing.
  fold.for_each_sink([&](InvocationSink& shard) {
    i64 base = static_cast<i64>(p.invocations_.size());
    std::vector<Invocation>& part = shard.invocations;
    for (Invocation& inv : part) {
      if (inv.parent >= 0) inv.parent += base;
    }
    if (base == 0) {
      p.invocations_ = std::move(part);
    } else {
      p.invocations_.insert(p.invocations_.end(), part.begin(), part.end());
    }
    part = {};
  });
  return p;
}

std::string resolve_name(const std::unordered_map<u64, std::string>& symbols,
                         u64 method) {
  auto it = symbols.find(method);
  if (it != symbols.end()) return it->second;
  // Fall back to the live registry (in-process analysis without a .sym file).
  std::string live = SymbolRegistry::instance().name_of(method);
  if (!live.empty()) return live;
  return str_format("0x%llx", static_cast<unsigned long long>(method));
}

std::string Profile::name(u64 method) const {
  return resolve_name(symbols_, method);
}

PathTree Profile::path_tree() const {
  PathTree tree;
  std::vector<u32> node(invocations_.size());
  for (usize i = 0; i < invocations_.size(); ++i) {
    const Invocation& inv = invocations_[i];
    u32 parent = inv.parent < 0 ? 0 : node[static_cast<usize>(inv.parent)];
    node[i] = tree.child(parent, inv.method);
    tree.nodes()[node[i]].agg.record(inv.inclusive(), inv.exclusive());
  }
  return tree;
}

std::vector<MethodStats> Profile::method_stats() const {
  PathRollup r = rollup(path_tree());
  std::vector<MethodStats> out;
  out.reserve(r.methods.size());
  for (const auto& [id, a] : r.methods) {
    out.push_back(MethodStats{id, a.count, a.inclusive_total, a.exclusive_total,
                              a.min_inclusive, a.max_inclusive});
  }
  // Tie-break on method id: equal totals are common in synthetic workloads,
  // and the map's iteration order tracks insertion order, which for spilled
  // sessions depends on drainer chunk timing.
  std::sort(out.begin(), out.end(), [](const MethodStats& a, const MethodStats& b) {
    if (a.exclusive_total != b.exclusive_total)
      return a.exclusive_total > b.exclusive_total;
    return a.method < b.method;
  });
  return out;
}

std::vector<CallEdge> Profile::call_edges() const {
  PathRollup r = rollup(path_tree());
  std::vector<CallEdge> out;
  out.reserve(r.edges.size());
  for (const auto& [k, a] : r.edges) {
    out.push_back(CallEdge{k.caller, k.callee, k.from_root, a.count, a.inclusive_total});
  }
  std::sort(out.begin(), out.end(), [](const CallEdge& a, const CallEdge& b) {
    if (a.count != b.count) return a.count > b.count;
    if (a.caller != b.caller) return a.caller < b.caller;
    if (a.callee != b.callee) return a.callee < b.callee;
    return a.from_root < b.from_root;
  });
  return out;
}

std::vector<std::pair<std::string, u64>> Profile::folded_stacks() const {
  // Each invocation contributes its *exclusive* time to the stack path
  // root→self, so the flame graph's widths add up exactly to total time.
  PathRollup r = rollup(path_tree(), &symbols_);
  return {std::make_move_iterator(r.stacks.begin()),
          std::make_move_iterator(r.stacks.end())};
}

std::optional<Profile> Profile::load_many(const std::vector<std::string>& prefixes) {
  Profile merged;
  // Method ids from different processes can collide with different
  // meanings (each process has its own registry / address space), so the
  // merge rekeys every method by its *symbolized name* into a fresh
  // synthetic id space (bit 61 marks merged ids; bit 62 stays set so they
  // remain disjoint from raw addresses).
  std::unordered_map<std::string, u64> ids_by_name;
  u64 next_id = (1ull << 62) | (1ull << 61);
  bool any = false;
  u64 input_index = 0;

  for (const std::string& prefix : prefixes) {
    auto prof = load(prefix);
    ++input_index;
    if (!prof) continue;
    any = true;

    usize base = merged.invocations_.size();
    for (const Invocation& inv : prof->invocations_) {
      Invocation copy = inv;
      copy.tid = (input_index << 32) | inv.tid;  // namespace threads per input
      if (copy.parent >= 0) copy.parent += static_cast<i64>(base);
      std::string name = prof->name(inv.method);
      auto [it, fresh] = ids_by_name.try_emplace(name, next_id);
      if (fresh) {
        merged.symbols_.emplace(next_id, name);
        ++next_id;
      }
      copy.method = it->second;
      merged.invocations_.push_back(copy);
    }

    merged.recon_.add(prof->recon_);
    merged.thread_count_ += prof->thread_count_;
    if (merged.ns_per_tick_ == 0.0) merged.ns_per_tick_ = prof->ns_per_tick_;
  }
  if (!any) return std::nullopt;
  return merged;
}

std::pair<std::string, u64> Profile::hottest_stack() const {
  std::pair<std::string, u64> best{"", 0};
  for (const auto& [path, ticks] : folded_stacks()) {
    if (ticks > best.second) best = {path, ticks};
  }
  return best;
}

namespace {

// The consistency checks of validate(), fed span by span in feed order;
// per-thread state carries across spans.
class Validator final : public SpanConsumer {
 public:
  void consume(std::span<const ShardSpan> spans) override {
    for (const ShardSpan& sp : spans) {
      for (u64 i = 0; i < sp.n; ++i, ++index_) check(sp.entries[i]);
    }
  }

  std::vector<ValidationIssue> finish() {
    for (const auto& [tid, t] : threads_) {
      if (t.depth != 0) {
        issues_.push_back({ValidationIssue::Kind::kUnbalancedThread, tid, index_,
                           str_format("calls minus returns = %lld",
                                      static_cast<long long>(t.depth))});
      }
    }
    return std::move(issues_);
  }

 private:
  void check(const LogEntry& e) {
    ThreadCheck& t = threads_[e.tid];
    if (e.addr == 0) {
      issues_.push_back({ValidationIssue::Kind::kZeroAddress, e.tid, index_,
                         "entry has null address"});
    }
    if (t.has_counter && e.counter() < t.last_counter) {
      issues_.push_back(
          {ValidationIssue::Kind::kNonMonotonicCounter, e.tid, index_,
           str_format("counter %llu after %llu",
                      static_cast<unsigned long long>(e.counter()),
                      static_cast<unsigned long long>(t.last_counter))});
    }
    t.last_counter = e.counter();
    t.has_counter = true;
    t.depth += e.kind() == EventKind::kCall ? 1 : -1;
  }

  struct ThreadCheck {
    u64 last_counter = 0;
    bool has_counter = false;
    i64 depth = 0;
  };
  std::map<u64, ThreadCheck> threads_;
  std::vector<ValidationIssue> issues_;
  u64 index_ = 0;  // entries checked so far
};

}  // namespace

std::vector<ValidationIssue> Profile::validate(const ProfileLog& log) {
  // Shard by shard, each window oldest first: the snapshot_ordered() layout
  // that entry_index points into.
  Validator v;
  for (u32 s = 0; s < log.shard_count(); ++s) {
    for (std::span<const LogEntry> sp : log.window(s).spans) {
      ShardSpan part{s, sp.data(), sp.size()};
      v.consume({&part, 1});
    }
  }
  return v.finish();
}

std::optional<std::vector<ValidationIssue>> Profile::validate_file(
    const std::string& prefix) {
  Validator v;
  if (!walk_session(prefix, v)) return std::nullopt;
  return v.finish();
}

std::vector<ValidationIssue> Profile::validate(const LogEntry* log_entries, u64 n) {
  Validator v;
  ShardSpan all{0, log_entries, n};
  v.consume({&all, 1});
  return v.finish();
}

}  // namespace teeperf::analyzer
