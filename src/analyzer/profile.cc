#include "analyzer/profile.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "analyzer/dump_reader.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/symbol_registry.h"
#include "drain/chunk_format.h"

namespace teeperf::analyzer {

std::optional<Profile> Profile::load_bytes(
    std::string_view log_bytes, std::unordered_map<u64, std::string> symbols) {
  auto dump = parse_dump(log_bytes);
  if (!dump) return std::nullopt;
  if (dump->single()) {  // parse_dump always yields >= 1 window
    std::span<const LogEntry> e = dump->shards[0];
    return build(e.data(), e.size(), std::move(symbols), dump->ns_per_tick);
  }
  return build_sharded(dump->shards, std::move(symbols), dump->ns_per_tick);
}

std::optional<Profile> Profile::load(const std::string& prefix) {
  if (file_exists(drain::chunk_path(prefix, 0))) return load_spill(prefix);
  auto raw = read_file(prefix + ".log");
  if (!raw) return std::nullopt;
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);
  return load_bytes(*raw, std::move(symbols));
}

std::optional<Profile> Profile::load_spill(const std::string& prefix) {
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);

  // Per-shard streams stitched by the shared SpillStitcher (dump_reader.h):
  // windows arrive in cursor order (chunks in sequence, residue last) and
  // every deduplicated span is appended to its shard's stream. The streaming
  // analyzer (stream.cc) walks the very same chunk sequence but feeds the
  // spans into rolling reconstruction state instead of vectors.
  std::vector<std::vector<LogEntry>> streams;
  SpillStitcher stitcher;
  auto append = [&](u32 s, const LogEntry* e, u64 n) {
    streams[s].insert(streams[s].end(), e, e + n);
  };
  auto absorb = [&](const ParsedDump& pd) -> bool {
    if (streams.empty()) streams.resize(pd.shards.size());
    return stitcher.absorb(pd, append);
  };

  bool bad = false;
  drain::ChunkScan scan = drain::for_each_chunk(
      prefix, [&](u32, std::string_view payload) {
        auto pd = parse_dump(payload);
        if (!pd || !absorb(*pd)) {
          bad = true;
          return false;
        }
        return true;
      });
  if (bad || scan == drain::ChunkScan::kCorrupt) return std::nullopt;

  // The final residue dump — optional: a session killed before dump time
  // still analyzes from its chunks alone.
  if (auto raw = read_file(prefix + ".log")) {
    auto pd = parse_dump(*raw);
    if (!pd || !absorb(*pd)) return std::nullopt;
  }

  if (streams.empty()) return std::nullopt;
  if (streams.size() == 1) {
    return build(streams[0].data(), streams[0].size(), std::move(symbols),
                 stitcher.ns_per_tick());
  }
  std::vector<std::span<const LogEntry>> windows(streams.begin(), streams.end());
  return build_sharded(windows, std::move(symbols), stitcher.ns_per_tick());
}

Profile Profile::from_log(const ProfileLog& log,
                          std::unordered_map<u64, std::string> symbols,
                          double ns_per_tick) {
  if (!log.valid()) return Profile{};
  if (ns_per_tick == 0.0) ns_per_tick = log.header()->ns_per_tick;
  // Each shard's window copied out oldest→newest, so a wrapped ring reads
  // in order and no reader sees segment gaps.
  std::vector<std::vector<LogEntry>> shards(log.shard_count());
  for (u32 s = 0; s < log.shard_count(); ++s) log.window(s).append_to(&shards[s]);
  if (shards.size() == 1) {
    return build(shards[0].data(), shards[0].size(), std::move(symbols),
                 ns_per_tick);
  }
  std::vector<std::span<const LogEntry>> windows(shards.begin(), shards.end());
  return build_sharded(windows, std::move(symbols), ns_per_tick);
}

Profile Profile::from_entries(const LogEntry* entries, u64 n,
                              std::unordered_map<u64, std::string> symbols,
                              double ns_per_tick) {
  return build(entries, n, std::move(symbols), ns_per_tick);
}

Profile Profile::build_sharded(std::span<const std::span<const LogEntry>> shards,
                               std::unordered_map<u64, std::string> symbols,
                               double ns_per_tick) {
  // One reconstruction per shard, run by a small worker pool. Safe because
  // a thread's entries are confined to one shard (tid % shard_count), so no
  // call stack spans windows; deterministic because the merge below walks
  // shards in directory order regardless of which worker finished when.
  std::vector<Profile> parts(shards.size());
  u32 hw = std::thread::hardware_concurrency();
  usize workers = std::min<usize>(hw == 0 ? 1 : hw, shards.size());
  std::atomic<usize> next{0};
  auto work = [&] {
    for (usize s; (s = next.fetch_add(1, std::memory_order_relaxed)) <
                  shards.size();) {
      parts[s] = build(shards[s].data(), shards[s].size(), {}, ns_per_tick);
    }
  };
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (usize w = 1; w < workers; ++w) pool.emplace_back(work);
    work();
    for (auto& t : pool) t.join();
  }

  // Merge in shard order. Method ids and tids mean the same thing in every
  // shard (same process, same address space), so — unlike load_many's
  // cross-process rekeying — only the parent indices need rebasing.
  Profile merged;
  merged.symbols_ = std::move(symbols);
  merged.ns_per_tick_ = ns_per_tick;
  for (Profile& part : parts) {
    usize base = merged.invocations_.size();
    for (const Invocation& inv : part.invocations_) {
      Invocation copy = inv;
      if (copy.parent >= 0) copy.parent += static_cast<i64>(base);
      merged.invocations_.push_back(copy);
    }
    merged.recon_.entries += part.recon_.entries;
    merged.recon_.stray_returns += part.recon_.stray_returns;
    merged.recon_.mismatched_returns += part.recon_.mismatched_returns;
    merged.recon_.unwound_frames += part.recon_.unwound_frames;
    merged.recon_.incomplete += part.recon_.incomplete;
    merged.recon_.tombstones += part.recon_.tombstones;
    // tid % shard_count confines a thread to one shard, so per-part thread
    // counts are disjoint and sum exactly.
    merged.thread_count_ += part.thread_count_;
  }
  return merged;
}

Profile Profile::build(const LogEntry* entries, u64 n,
                       std::unordered_map<u64, std::string> symbols,
                       double ns_per_tick) {
  Profile p;
  p.symbols_ = std::move(symbols);
  p.ns_per_tick_ = ns_per_tick;
  p.recon_.entries = n;

  // Per-thread reconstruction state. Only per-thread order is guaranteed by
  // the lock-free log, and only per-thread order is used (§II-C).
  struct ThreadRecon {
    std::vector<usize> open;  // indices into p.invocations_
    u64 last_counter = 0;
  };
  std::map<u64, ThreadRecon> threads;  // ordered so output is deterministic

  for (u64 i = 0; i < n; ++i) {
    const LogEntry& e = entries[i];
    // Skip tombstones: all-zero slots a writer reserved (tail moved past
    // them) but never filled because it died between the fetch-and-add and
    // the stores. Treating one as a call would invent a phantom invocation
    // of method 0 on thread 0.
    if (e.kind_and_counter == 0 && e.addr == 0 && e.tid == 0 && e.reserved == 0) {
      ++p.recon_.tombstones;
      continue;
    }
    ThreadRecon& t = threads[e.tid];
    t.last_counter = e.counter();

    if (e.kind() == EventKind::kCall) {
      Invocation inv;
      inv.method = e.addr;
      inv.tid = e.tid;
      inv.start = e.counter();
      inv.depth = static_cast<u32>(t.open.size());
      inv.parent = t.open.empty() ? -1 : static_cast<i64>(t.open.back());
      usize index = p.invocations_.size();
      if (!t.open.empty()) ++p.invocations_[t.open.back()].calls_made;
      p.invocations_.push_back(inv);
      t.open.push_back(index);
      continue;
    }

    // Return: close the matching frame. The common case is the top of
    // stack; a mismatch means enters were dropped (filtering, log overflow)
    // and is repaired by unwinding to the nearest matching frame.
    if (t.open.empty()) {
      ++p.recon_.stray_returns;
      continue;
    }
    usize match = t.open.size();
    for (usize k = t.open.size(); k-- > 0;) {
      if (p.invocations_[t.open[k]].method == e.addr) {
        match = k;
        break;
      }
    }
    if (match == t.open.size()) {
      ++p.recon_.mismatched_returns;
      continue;
    }
    while (t.open.size() > match) {
      usize idx = t.open.back();
      t.open.pop_back();
      Invocation& inv = p.invocations_[idx];
      // Clamp against a non-monotonic counter (a broken or tampered time
      // source must yield zero durations, not u64 underflow).
      inv.end = std::max(e.counter(), inv.start);
      if (t.open.size() != match) ++p.recon_.unwound_frames;
      if (inv.parent >= 0) {
        p.invocations_[static_cast<usize>(inv.parent)].children += inv.inclusive();
      }
    }
  }

  // Close whatever is still open with the thread's last observed counter;
  // those invocations are flagged incomplete.
  for (auto& [tid, t] : threads) {
    (void)tid;
    while (!t.open.empty()) {
      usize idx = t.open.back();
      t.open.pop_back();
      Invocation& inv = p.invocations_[idx];
      inv.end = std::max(t.last_counter, inv.start);
      inv.complete = false;
      ++p.recon_.incomplete;
      if (inv.parent >= 0) {
        p.invocations_[static_cast<usize>(inv.parent)].children += inv.inclusive();
      }
    }
  }

  p.thread_count_ = threads.size();
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

std::vector<MethodStats> Profile::method_stats() const {
  std::unordered_map<u64, MethodStats> by_method;
  for (const Invocation& inv : invocations_) {
    MethodStats& s = by_method[inv.method];
    s.method = inv.method;
    ++s.count;
    s.inclusive_total += inv.inclusive();
    s.exclusive_total += inv.exclusive();
    s.min_inclusive = std::min(s.min_inclusive, inv.inclusive());
    s.max_inclusive = std::max(s.max_inclusive, inv.inclusive());
  }
  std::vector<MethodStats> out;
  out.reserve(by_method.size());
  for (auto& [id, s] : by_method) {
    (void)id;
    out.push_back(s);
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
  struct Key {
    u64 caller;
    u64 callee;
    bool from_root;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    usize operator()(const Key& k) const {
      return std::hash<u64>{}(k.caller * 1099511628211ull ^ k.callee ^
                              (k.from_root ? 0x9e37ull : 0));
    }
  };
  std::unordered_map<Key, CallEdge, KeyHash> edges;
  for (const Invocation& inv : invocations_) {
    Key k{};
    if (inv.parent < 0) {
      k = Key{0, inv.method, true};
    } else {
      k = Key{invocations_[static_cast<usize>(inv.parent)].method, inv.method, false};
    }
    CallEdge& e = edges[k];
    e.caller = k.caller;
    e.callee = k.callee;
    e.from_root = k.from_root;
    ++e.count;
    e.inclusive_total += inv.inclusive();
  }
  std::vector<CallEdge> out;
  out.reserve(edges.size());
  for (auto& [k, e] : edges) {
    (void)k;
    out.push_back(e);
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
  std::unordered_map<std::string, u64> folded;
  std::vector<std::string> path_cache(invocations_.size());
  for (usize i = 0; i < invocations_.size(); ++i) {
    const Invocation& inv = invocations_[i];
    std::string path;
    if (inv.parent >= 0) {
      path = path_cache[static_cast<usize>(inv.parent)];
      path += ';';
    }
    path += name(inv.method);
    path_cache[i] = path;
    u64 excl = inv.exclusive();
    if (excl > 0) folded[path] += excl;
  }
  std::vector<std::pair<std::string, u64>> out(folded.begin(), folded.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace teeperf::analyzer

namespace teeperf::analyzer {

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

    merged.recon_.entries += prof->recon_.entries;
    merged.recon_.stray_returns += prof->recon_.stray_returns;
    merged.recon_.mismatched_returns += prof->recon_.mismatched_returns;
    merged.recon_.unwound_frames += prof->recon_.unwound_frames;
    merged.recon_.incomplete += prof->recon_.incomplete;
    merged.recon_.tombstones += prof->recon_.tombstones;
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

std::vector<ValidationIssue> Profile::validate(const ProfileLog& log) {
  // The per-shard windows concatenated: per-thread order is what validate
  // checks, and a thread never spans shards.
  std::vector<LogEntry> ordered;
  log.snapshot_ordered(&ordered);
  return validate(ordered.data(), ordered.size());
}

std::optional<std::vector<ValidationIssue>> Profile::validate_file(
    const std::string& prefix) {
  auto raw = read_file(prefix + ".log");
  if (!raw) return std::nullopt;
  auto dump = parse_dump(*raw);
  if (!dump) return std::nullopt;
  std::vector<LogEntry> flat = dump->flatten();
  return validate(flat.data(), flat.size());
}

std::vector<ValidationIssue> Profile::validate(const LogEntry* log_entries, u64 n) {
  std::vector<ValidationIssue> issues;
  struct ThreadCheck {
    u64 last_counter = 0;
    bool has_counter = false;
    i64 depth = 0;
  };
  std::map<u64, ThreadCheck> threads;

  for (u64 i = 0; i < n; ++i) {
    const LogEntry& e = log_entries[i];
    ThreadCheck& t = threads[e.tid];
    if (e.addr == 0) {
      issues.push_back({ValidationIssue::Kind::kZeroAddress, e.tid, i,
                        "entry has null address"});
    }
    if (t.has_counter && e.counter() < t.last_counter) {
      issues.push_back({ValidationIssue::Kind::kNonMonotonicCounter, e.tid, i,
                        str_format("counter %llu after %llu",
                                   static_cast<unsigned long long>(e.counter()),
                                   static_cast<unsigned long long>(t.last_counter))});
    }
    t.last_counter = e.counter();
    t.has_counter = true;
    t.depth += e.kind() == EventKind::kCall ? 1 : -1;
  }
  for (const auto& [tid, t] : threads) {
    if (t.depth != 0) {
      issues.push_back({ValidationIssue::Kind::kUnbalancedThread, tid, n,
                        str_format("calls minus returns = %lld",
                                   static_cast<long long>(t.depth))});
    }
  }
  return issues;
}

}  // namespace teeperf::analyzer
