#include "analyzer/fold.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "common/fileutil.h"
#include "core/symbol_registry.h"
#include "drain/chunk_format.h"

namespace teeperf::analyzer {

namespace {

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

void PathTree::grow() {
  slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, Slot{});
  usize mask = slots_.size() - 1;
  for (usize i = 1; i < nodes_.size(); ++i) {
    usize at = slot_of(nodes_[i].parent, nodes_[i].method, mask);
    while (slots_[at].node != 0) at = (at + 1) & mask;
    slots_[at] = Slot{nodes_[i].method, nodes_[i].parent, static_cast<u32>(i)};
  }
}

void feed_log(const ProfileLog& log, SpanConsumer& out) {
  std::vector<LogWindow> windows(log.shard_count());
  for (u32 s = 0; s < windows.size(); ++s) windows[s] = log.window(s);
  std::vector<ShardSpan> spans;
  for (usize part = 0; part < 2; ++part) {
    spans.clear();
    for (u32 s = 0; s < windows.size(); ++s) {
      std::span<const LogEntry> sp = windows[s].spans[part];
      if (!sp.empty()) spans.push_back({s, sp.data(), sp.size()});
    }
    if (!spans.empty()) out.consume(spans);
  }
}

std::optional<SessionInfo> walk_session(const std::string& prefix,
                                        SpanConsumer& out, std::string* error) {
  auto fail = [&](const char* why) -> std::optional<SessionInfo> {
    if (error) *error = why;
    return std::nullopt;
  };
  bool spill = file_exists(drain::chunk_path(prefix, 0));
  SpillStitcher stitcher;
  std::vector<ShardSpan> spans;
  auto absorb = [&](std::string_view bytes) {
    auto pd = parse_dump(bytes);
    if (!pd || !stitcher.absorb(*pd, &spans)) return false;
    out.consume(spans);
    return true;
  };

  if (spill) {
    // The reader thread reads and verifies chunk k+1 while this thread
    // folds chunk k straight out of its verified buffer.
    bool bad = false;
    {
      ChunkReader reader(prefix);
      std::string chunk;
      while (!bad && reader.next(&chunk)) {
        bad = !absorb(std::string_view(chunk).substr(sizeof(drain::ChunkFrame)));
      }
      bad = bad || reader.status() == drain::ChunkRead::kCorrupt;
    }
    if (bad) return fail("corrupt chunk sequence");
  }

  // A spill session's residue dump is optional: a session killed before
  // dump time still analyzes from its chunks alone.
  std::string raw;
  if (read_file(prefix + ".log", &raw)) {
    if (!absorb(raw)) return fail(spill ? "bad residue dump" : "unparseable dump");
  } else if (!spill) {
    return fail("cannot read log");
  }
  if (!stitcher.any()) return fail("no chunks and no residue dump");

  SessionInfo info;
  if (auto sym = read_file(prefix + ".sym")) info.symbols = SymbolRegistry::parse(*sym);
  info.ns_per_tick = stitcher.ns_per_tick();
  return info;
}

PathRollup rollup(const PathTree& tree,
                  const std::unordered_map<u64, std::string>* symbols) {
  PathRollup r;
  const std::vector<PathNode>& nodes = tree.nodes();
  for (usize i = 1; i < nodes.size(); ++i) {
    const PathNode& node = nodes[i];
    bool from_root = node.parent == 0;
    r.methods[node.method].add(node.agg);
    r.edges[EdgeKey{from_root ? 0 : nodes[node.parent].method, node.method,
                    from_root}]
        .add(node.agg);
  }
  if (symbols == nullptr) return r;

  // One registry/symbol lookup per distinct method.
  for (const auto& [id, agg] : r.methods) {
    (void)agg;
    r.names.emplace(id, resolve_name(*symbols, id));
  }

  // Folded stacks: a depth-first walk from the root that keeps one rolling
  // path string, so each path is built once. Child lists fill in one
  // backward pass over the ids.
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
    path += r.names[node.method];
    if (node.agg.exclusive_total > 0) r.stacks[path] += node.agg.exclusive_total;
    for (u32 c = first_child[i]; c != 0; c = next_sibling[c]) {
      todo.push_back({c, path.size()});
    }
  }
  return r;
}

}  // namespace teeperf::analyzer
