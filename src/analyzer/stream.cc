#include "analyzer/stream.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/fileutil.h"
#include "core/symbol_registry.h"
#include "drain/chunk_format.h"

namespace teeperf::analyzer {

namespace {

// Runs fn(0..n-1) on a small worker pool — the build_sharded pattern. Used
// to aggregate the shards of one dump concurrently; every aggregate is a
// sum/min/max over disjoint per-shard state, so scheduling cannot change
// the result.
template <typename F>
void run_parallel(usize n, F&& fn) {
  u32 hw = std::thread::hardware_concurrency();
  usize workers = std::min<usize>(hw == 0 ? 1 : hw, n);
  if (workers <= 1) {
    for (usize i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<usize> next{0};
  auto work = [&] {
    for (usize i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (usize w = 1; w < workers; ++w) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
}

void set_err(std::string* error, const char* why) {
  if (error) *error = why;
}

// Reads and verifies a session's chunk sequence on its own thread, one
// chunk ahead of the caller. Two buffers take turns: the caller folds one
// while the thread reads the next chunk into the other, so at most two
// chunk files are in memory and, once both buffers have grown to the
// largest chunk, reading allocates nothing.
class ChunkReader {
 public:
  explicit ChunkReader(std::string prefix)
      : prefix_(std::move(prefix)), thread_([this] { run(); }) {}

  // Stops the thread, early or not, and joins it.
  ~ChunkReader() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  // Swaps the next verified chunk file into *chunk (its payload starts at
  // sizeof(ChunkFrame)) and hands the caller's finished buffer back to the
  // thread for reuse: views into the previous chunk die here. False once
  // the sequence is over; status() then tells a clean end (kEnd) from a
  // corrupt middle chunk (kCorrupt). Rethrows what the thread threw
  // (allocation failure), as a scan on this thread would have.
  bool next(std::string* chunk) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return full_; });
    if (error_) std::rethrow_exception(error_);
    if (status_ != drain::ChunkRead::kOk) return false;
    chunk->swap(slot_);
    full_ = false;
    cv_.notify_all();
    return true;
  }

  drain::ChunkRead status() {
    std::lock_guard<std::mutex> lk(mu_);
    return status_;
  }

 private:
  void run() {
    try {
      read_ahead();
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      error_ = std::current_exception();
      full_ = true;
      cv_.notify_all();
    }
  }

  void read_ahead() {
    std::string buf;
    for (u32 seq = 0;; ++seq) {
      drain::ChunkRead r = drain::read_chunk(prefix_, seq, &buf);
      std::unique_lock<std::mutex> lk(mu_);
      if (stop_) return;
      slot_.swap(buf);
      status_ = r;
      full_ = true;
      cv_.notify_all();
      if (r != drain::ChunkRead::kOk) return;
      cv_.wait(lk, [&] { return !full_ || stop_; });
      if (stop_) return;
      buf.swap(slot_);  // the caller's previous buffer
    }
  }

  const std::string prefix_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string slot_;  // a chunk for the caller, or a buffer it gave back
  drain::ChunkRead status_ = drain::ChunkRead::kOk;
  std::exception_ptr error_;
  bool full_ = false;  // slot_ and status_ (or error_) hold a result not yet taken
  bool stop_ = false;
  std::thread thread_;  // last: starts once the state above exists
};

}  // namespace

StreamAnalyzer::StreamAnalyzer(std::unordered_map<u64, std::string> symbols)
    : symbols_(std::move(symbols)) {}

void StreamAnalyzer::ensure_shards(usize n) {
  while (shards_.size() < n) shards_.push_back(std::make_unique<ShardState>());
}

void StreamAnalyzer::NodeAgg::add(const NodeAgg& o) {
  count += o.count;
  inclusive_total += o.inclusive_total;
  exclusive_total += o.exclusive_total;
  min_inclusive = std::min(min_inclusive, o.min_inclusive);
  max_inclusive = std::max(max_inclusive, o.max_inclusive);
}

usize StreamAnalyzer::PathTree::slot_of(u32 parent, u64 method, usize mask) {
  u64 h = (method + parent * 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
  return static_cast<usize>(h ^ (h >> 31)) & mask;
}

void StreamAnalyzer::PathTree::grow() {
  slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, Slot{});
  usize mask = slots_.size() - 1;
  for (usize i = 1; i < nodes_.size(); ++i) {
    usize at = slot_of(nodes_[i].parent, nodes_[i].method, mask);
    while (slots_[at].node != 0) at = (at + 1) & mask;
    slots_[at] = Slot{nodes_[i].method, nodes_[i].parent, static_cast<u32>(i)};
  }
}

u32 StreamAnalyzer::PathTree::child(u32 parent, u64 method) {
  if (2 * nodes_.size() >= slots_.size()) grow();
  usize mask = slots_.size() - 1;
  for (usize at = slot_of(parent, method, mask);; at = (at + 1) & mask) {
    Slot& slot = slots_[at];
    if (slot.node == 0) {
      slot = Slot{method, parent, static_cast<u32>(nodes_.size())};
      PathNode n;
      n.method = method;
      n.parent = parent;
      nodes_.push_back(n);
      return slot.node;
    }
    if (slot.method == method && slot.parent == parent) return slot.node;
  }
}

void StreamAnalyzer::close_top(ShardState& sh, ThreadState& t,
                               u64 end_counter) {
  Frame f = t.open.back();
  t.open.pop_back();
  // Clamp against a non-monotonic counter, exactly as Profile::build does.
  u64 end = std::max(end_counter, f.start);
  u64 incl = end - f.start;
  u64 excl = f.children <= incl ? incl - f.children : 0;

  NodeAgg& a = sh.paths.nodes()[f.node].agg;
  ++a.count;
  a.inclusive_total += incl;
  a.exclusive_total += excl;
  a.min_inclusive = std::min(a.min_inclusive, incl);
  a.max_inclusive = std::max(a.max_inclusive, incl);

  // The frame below is still open (pops go top-down), so its children sum
  // accumulates exactly as the parent Invocation's would in build().
  if (!t.open.empty()) t.open.back().children += incl;
}

void StreamAnalyzer::feed(u32 shard, const LogEntry* entries, u64 n) {
  ensure_shards(static_cast<usize>(shard) + 1);
  ShardState& sh = *shards_[shard];
  sh.recon.entries += n;

  // Threads interleave in batches, so the previous entry's thread is
  // usually this one's: look the map up only when the tid changes.
  ThreadState* t = nullptr;
  u64 tid = 0;
  for (u64 i = 0; i < n; ++i) {
    const LogEntry& e = entries[i];
    // Tombstones: all-zero slots a dead writer reserved but never filled.
    if (e.kind_and_counter == 0 && e.addr == 0 && e.tid == 0 &&
        e.reserved == 0) {
      ++sh.recon.tombstones;
      continue;
    }
    if (t == nullptr || e.tid != tid) {
      tid = e.tid;
      t = &sh.threads[tid];
    }
    t->last_counter = e.counter();

    if (e.kind() == EventKind::kCall) {
      Frame f;
      f.method = e.addr;
      f.start = e.counter();
      f.node = sh.paths.child(t->open.empty() ? 0 : t->open.back().node, e.addr);
      t->open.push_back(f);
      continue;
    }

    // Return: same repair policy as build() — stray if the stack is empty,
    // mismatched if nothing on the stack matches, otherwise unwind to the
    // nearest matching frame.
    if (t->open.empty()) {
      ++sh.recon.stray_returns;
      continue;
    }
    usize match = t->open.size();
    for (usize k = t->open.size(); k-- > 0;) {
      if (t->open[k].method == e.addr) {
        match = k;
        break;
      }
    }
    if (match == t->open.size()) {
      ++sh.recon.mismatched_returns;
      continue;
    }
    while (t->open.size() > match) {
      close_top(sh, *t, e.counter());
      if (t->open.size() != match) ++sh.recon.unwound_frames;
    }
  }
}

void StreamAnalyzer::feed_dump(const ParsedDump& dump) {
  ensure_shards(dump.shards.size());
  std::vector<u32> live;
  for (usize s = 0; s < dump.shards.size(); ++s) {
    if (!dump.shards[s].empty()) live.push_back(static_cast<u32>(s));
  }
  run_parallel(live.size(), [&](usize i) {
    u32 s = live[i];
    feed(s, dump.shards[s].data(), dump.shards[s].size());
  });
}

void StreamAnalyzer::fold_tree(const PathTree& tree, MergeableProfile* m) const {
  // Method and edge aggregates by id first, so each distinct one is named
  // and inserted into the name-keyed maps once.
  struct EdgeKey {
    u64 caller = 0;  // 0 for a root edge
    u64 callee = 0;
    bool from_root = false;
    bool operator==(const EdgeKey&) const = default;
  };
  struct EdgeKeyHash {
    usize operator()(const EdgeKey& k) const {
      return std::hash<u64>{}(k.caller * 1099511628211ull ^ k.callee ^
                              (k.from_root ? 0x9e37ull : 0));
    }
  };
  std::unordered_map<u64, NodeAgg> methods;
  std::unordered_map<EdgeKey, NodeAgg, EdgeKeyHash> edges;
  const std::vector<PathNode>& nodes = tree.nodes();
  for (usize i = 1; i < nodes.size(); ++i) {
    const PathNode& node = nodes[i];
    bool from_root = node.parent == 0;
    methods[node.method].add(node.agg);
    edges[EdgeKey{from_root ? 0 : nodes[node.parent].method, node.method,
                  from_root}]
        .add(node.agg);
  }

  // One registry/symbol lookup per distinct method.
  std::unordered_map<u64, std::string> names;
  auto name = [&](u64 method) -> const std::string& {
    auto it = names.find(method);
    if (it == names.end()) it = names.emplace(method, name_of(method)).first;
    return it->second;
  };
  for (const auto& [id, a] : methods) {
    MprofMethod& mm = m->methods[name(id)];
    mm.id = std::min(mm.id, id);
    mm.count += a.count;
    mm.inclusive_total += a.inclusive_total;
    mm.exclusive_total += a.exclusive_total;
    mm.min_inclusive = std::min(mm.min_inclusive, a.min_inclusive);
    mm.max_inclusive = std::max(mm.max_inclusive, a.max_inclusive);
  }
  for (const auto& [key, a] : edges) {
    MprofEdge& me = m->edges[MprofEdgeKey{
        key.from_root ? std::string() : name(key.caller), name(key.callee),
        key.from_root}];
    me.count += a.count;
    me.inclusive_total += a.inclusive_total;
  }

  // Folded stacks: a depth-first walk from the root that keeps one rolling
  // path string, so each path is built once, here, instead of once per
  // closed frame. Child lists fill in one backward pass over the ids.
  usize n = nodes.size();
  std::vector<u32> first_child(n, 0), next_sibling(n, 0);  // 0 = none
  for (usize i = n; i-- > 1;) {
    u32 parent = nodes[i].parent;
    next_sibling[i] = first_child[parent];
    first_child[parent] = static_cast<u32>(i);
  }
  std::string path;
  std::vector<std::pair<u32, usize>> todo;  // node, its parent's path length
  for (u32 c = first_child[0]; c != 0; c = next_sibling[c]) todo.push_back({c, 0});
  while (!todo.empty()) {
    auto [i, parent_len] = todo.back();
    todo.pop_back();
    const PathNode& node = nodes[i];
    path.resize(parent_len);
    if (parent_len > 0) path += ';';
    path += name(node.method);
    if (node.agg.exclusive_total > 0) m->stacks[path] += node.agg.exclusive_total;
    for (u32 c = first_child[i]; c != 0; c = next_sibling[c]) {
      todo.push_back({c, path.size()});
    }
  }
}

MergeableProfile StreamAnalyzer::finish() {
  MergeableProfile m;
  m.sessions = 1;
  m.ns_per_tick = ns_per_tick_;

  // Every shard's paths merge into one session tree, so each distinct
  // path is named and inserted once, not once per shard.
  PathTree session;
  std::vector<u32> to_session;
  for (auto& shp : shards_) {
    ShardState& sh = *shp;
    // Close whatever is still open with each thread's last counter; build()
    // flags these incomplete, and only the counters feed the aggregates.
    for (auto& [tid, t] : sh.threads) {
      (void)tid;
      while (!t.open.empty()) {
        close_top(sh, t, t.last_counter);
        ++sh.recon.incomplete;
      }
    }

    m.stats.entries += sh.recon.entries;
    m.stats.stray_returns += sh.recon.stray_returns;
    m.stats.mismatched_returns += sh.recon.mismatched_returns;
    m.stats.unwound_frames += sh.recon.unwound_frames;
    m.stats.incomplete += sh.recon.incomplete;
    m.stats.tombstones += sh.recon.tombstones;
    // tid % shard_count confines a thread to one shard: disjoint, sums exactly.
    m.stats.thread_count += sh.threads.size();

    // Parents precede children, so each node's parent is mapped first.
    const std::vector<PathNode>& nodes = sh.paths.nodes();
    to_session.assign(nodes.size(), 0);
    for (usize i = 1; i < nodes.size(); ++i) {
      u32 at = session.child(to_session[nodes[i].parent], nodes[i].method);
      to_session[i] = at;
      session.nodes()[at].agg.add(nodes[i].agg);
    }
  }
  fold_tree(session, &m);
  return m;
}

std::optional<MergeableProfile> StreamAnalyzer::analyze_spill(
    const std::string& prefix, std::string* error) {
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);
  StreamAnalyzer sa(std::move(symbols));
  SpillStitcher st;

  // One dump at a time: collect the stitcher's deduplicated spans (views
  // into the dump, alive for this call), then aggregate them in parallel —
  // each span is a distinct shard, so the workers share nothing.
  struct Span {
    u32 shard;
    const LogEntry* entries;
    u64 n;
  };
  auto absorb = [&](const ParsedDump& pd) -> bool {
    std::vector<Span> spans;
    if (!st.absorb(pd, [&](u32 s, const LogEntry* e, u64 n) {
          spans.push_back({s, e, n});
        })) {
      return false;
    }
    sa.ensure_shards(st.shard_count());
    run_parallel(spans.size(), [&](usize i) {
      sa.feed(spans[i].shard, spans[i].entries, spans[i].n);
    });
    return true;
  };

  // The reader thread reads and verifies chunk k+1 while this thread folds
  // chunk k straight out of its verified buffer.
  bool bad = false;
  {
    ChunkReader reader(prefix);
    std::string chunk;
    while (!bad && reader.next(&chunk)) {
      auto pd = parse_dump(std::string_view(chunk).substr(sizeof(drain::ChunkFrame)));
      bad = !pd || !absorb(*pd);
    }
    bad = bad || reader.status() == drain::ChunkRead::kCorrupt;
  }
  if (bad) {
    set_err(error, "corrupt chunk sequence");
    return std::nullopt;
  }

  // The final residue dump — optional, as in Profile::load_spill.
  std::string raw;
  if (read_file(prefix + ".log", &raw)) {
    auto pd = parse_dump(raw);
    if (!pd || !absorb(*pd)) {
      set_err(error, "bad residue dump");
      return std::nullopt;
    }
  }

  if (!st.any()) {
    set_err(error, "no chunks and no residue dump");
    return std::nullopt;
  }
  sa.set_ns_per_tick(st.ns_per_tick());
  return sa.finish();
}

std::optional<MergeableProfile> StreamAnalyzer::analyze(
    const std::string& prefix, std::string* error) {
  if (file_exists(drain::chunk_path(prefix, 0))) {
    return analyze_spill(prefix, error);
  }
  std::string raw;
  if (!read_file(prefix + ".log", &raw)) {
    set_err(error, "cannot read log");
    return std::nullopt;
  }
  std::unordered_map<u64, std::string> symbols;
  if (auto sym = read_file(prefix + ".sym")) symbols = SymbolRegistry::parse(*sym);
  auto pd = parse_dump(raw);
  if (!pd) {
    set_err(error, "unparseable dump");
    return std::nullopt;
  }
  StreamAnalyzer sa(std::move(symbols));
  sa.feed_dump(*pd);
  sa.set_ns_per_tick(pd->ns_per_tick);
  return sa.finish();
}

}  // namespace teeperf::analyzer
