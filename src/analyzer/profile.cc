#include "analyzer/profile.h"

#include <map>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
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
  return from_fold(fold, std::move(symbols), dump->layout.ns_per_tick);
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
  // same address space), so only the parent indices need rebasing.
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

SessionTree Profile::path_tree() const {
  SessionTree t{PathTree{}, symbols_, ns_per_tick_, recon_, thread_count_};
  // Parents precede children in invocations_.
  std::vector<u32> node(invocations_.size());
  for (usize i = 0; i < invocations_.size(); ++i) {
    const Invocation& inv = invocations_[i];
    u32 parent = inv.parent < 0 ? 0 : node[static_cast<usize>(inv.parent)];
    node[i] = t.tree.child(parent, inv.method);
    t.tree.nodes()[node[i]].agg.record(inv.inclusive(), inv.exclusive());
  }
  return t;
}

std::vector<std::pair<std::string, u64>> Profile::folded_stacks() const {
  MergeableProfile m = MergeableProfile::from_profile(*this);
  return {m.stacks.begin(), m.stacks.end()};
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
