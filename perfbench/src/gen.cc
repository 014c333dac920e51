#include "gen.h"

#include <unordered_map>

#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "core/counter.h"

namespace perfbench {

using teeperf::EventKind;
using teeperf::LogEntry;
using teeperf::Xorshift64;

namespace {

// splitmix64: independent sub-seeds from one workload seed.
u64 sub_seed(u64 seed, u64 salt) {
  u64 z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// A random call tree. Each new node hangs off one of the most recent nodes,
// which grows long chains (deep paths); chains that reach max_depth restart
// near the root, which keeps the tree wide. Node i's root path is one
// distinct folded stack.
struct Tree {
  std::vector<u32> method;
  std::vector<u32> parent;
  std::vector<u32> depth;
  std::vector<std::vector<u32>> children;
  u32 size() const { return static_cast<u32>(method.size()); }
};

Tree make_tree(const MergeShape& shape, Xorshift64& rng) {
  Tree t;
  t.method.push_back(0);
  t.parent.push_back(0);
  t.depth.push_back(0);
  t.children.emplace_back();
  for (u32 i = 1; i < shape.nodes; ++i) {
    u32 p = i - 1 - static_cast<u32>(rng.next_below(i < 48 ? i : 48));
    if (t.depth[p] + 1 >= shape.max_depth) {
      p = static_cast<u32>(rng.next_below(i < 64 ? i : 64));
    }
    if (t.depth[p] + 1 >= shape.max_depth) p = 0;
    t.method.push_back(1 + static_cast<u32>(rng.next_below(shape.methods - 1)));
    t.parent.push_back(p);
    t.depth.push_back(t.depth[p] + 1);
    t.children.emplace_back();
    t.children[p].push_back(i);
  }
  return t;
}

u64 method_id(u32 m) { return 0x400000ull + 16ull * m; }

std::string method_name(u32 m) {
  return teeperf::str_format("app::mod%02u::fn_%03u", m % 24, m);
}

// One thread's event stream: requests that each call down the root path of
// a random node, make up to four leaf calls under it, and unwind.
void gen_stream(const Tree& t, Xorshift64& rng, u64 tid, u64 target,
                std::vector<LogEntry>* out, u64* calls) {
  u64 counter = 1;
  auto emit = [&](EventKind kind, u32 node) {
    LogEntry e{};
    e.kind_and_counter = LogEntry::pack(kind, counter);
    e.addr = method_id(t.method[node]);
    e.tid = tid;
    out->push_back(e);
    counter += 1 + rng.next_below(8);
    if (kind == EventKind::kCall) ++*calls;
  };
  std::vector<u32> path;
  while (out->size() < target) {
    u32 node = static_cast<u32>(rng.next_below(t.size()));
    path.clear();
    for (u32 n = node;; n = t.parent[n]) {
      path.push_back(n);
      if (n == 0) break;
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) emit(EventKind::kCall, *it);
    const std::vector<u32>& kids = t.children[node];
    for (usize k = 0; k < kids.size() && k < 4; ++k) {
      emit(EventKind::kCall, kids[k]);
      emit(EventKind::kReturn, kids[k]);
    }
    for (u32 n : path) emit(EventKind::kReturn, n);
  }
}

// The session header every chunk carries.
void init_session_header(teeperf::LogHeader* h) {
  h->magic = teeperf::kLogMagic;
  h->version = teeperf::kLogVersionSharded;
  h->flags.store(teeperf::log_flags::kMultithread |
                     teeperf::log_flags::kRecordCalls |
                     teeperf::log_flags::kRecordReturns,
                 std::memory_order_relaxed);
  h->pid = 1;
  h->counter_mode = static_cast<u32>(teeperf::CounterMode::kTsc);
  h->ns_per_tick = 0.5;
}

}  // namespace

StringMatchApp make_string_match(u64 words, u32 threads, u64 seed) {
  teeperf::phoenix::StringMatchInput all =
      teeperf::phoenix::gen_string_match(static_cast<usize>(words), seed);
  StringMatchApp app;
  app.words = all.words.size();
  usize per = (all.words.size() + threads - 1) / threads;
  for (u32 i = 0; i < threads; ++i) {
    teeperf::phoenix::StringMatchInput slice;
    slice.keys = all.keys;
    usize begin = std::min(all.words.size(), i * per);
    usize end = std::min(all.words.size(), begin + per);
    slice.words.assign(std::make_move_iterator(all.words.begin() + begin),
                       std::make_move_iterator(all.words.begin() + end));
    app.slices.push_back(std::move(slice));
  }
  return app;
}

MergeInputs make_merge_inputs(const MergeShape& shape, u64 seed) {
  MergeInputs in;
  Xorshift64 tree_rng(sub_seed(seed, 0));
  Tree tree = make_tree(shape, tree_rng);

  std::unordered_map<u64, std::string> names;
  for (u32 m = 0; m < shape.methods; ++m) {
    names.emplace(method_id(m), method_name(m));
    in.symbols += teeperf::str_format(
        "%llu\t%s\n", static_cast<unsigned long long>(method_id(m)),
        method_name(m).c_str());
  }

  // The session, cut into drainer-shaped chunks.
  std::vector<std::vector<LogEntry>> streams(shape.shards);
  for (u32 s = 0; s < shape.shards; ++s) {
    Xorshift64 rng(sub_seed(seed, 1 + s));
    gen_stream(tree, rng, s, shape.entries_per_shard, &streams[s], &in.calls);
    in.entries += streams[s].size();
  }
  for (u64 begin = 0;; begin += shape.chunk_entries) {
    std::vector<teeperf::drain::ShardWindow> windows(shape.shards);
    bool any = false;
    for (u32 s = 0; s < shape.shards; ++s) {
      const std::vector<LogEntry>& st = streams[s];
      if (begin >= st.size()) continue;
      u64 end = std::min<u64>(st.size(), begin + shape.chunk_entries);
      windows[s].start = begin;
      windows[s].entries.assign(st.begin() + static_cast<long>(begin),
                                st.begin() + static_cast<long>(end));
      any = true;
    }
    if (!any) break;
    in.chunks.push_back(std::move(windows));
  }

  // The per-session parts: the same code, other request mixes.
  for (u32 p = 0; p < shape.parts; ++p) {
    teeperf::analyzer::StreamAnalyzer sa(names);
    for (u32 s = 0; s < shape.shards; ++s) {
      Xorshift64 rng(sub_seed(seed, 100 + p * shape.shards + s));
      std::vector<LogEntry> st;
      u64 calls = 0;
      gen_stream(tree, rng, s, shape.part_entries_per_shard, &st, &calls);
      sa.feed(s, st.data(), st.size());
    }
    sa.set_ns_per_tick(0.5);
    in.parts.push_back(sa.finish());
  }
  return in;
}

bool write_merge_inputs(const MergeInputs& in, const std::string& prefix,
                        const std::vector<std::string>& part_paths) {
  teeperf::LogHeader h;
  init_session_header(&h);
  for (usize c = 0; c < in.chunks.size(); ++c) {
    u32 seq = static_cast<u32>(c);
    if (!teeperf::write_file(teeperf::drain::chunk_path(prefix, seq),
                             teeperf::drain::serialize_chunk(h, in.chunks[c], seq))) {
      return false;
    }
  }
  if (!teeperf::write_file(prefix + ".sym", in.symbols)) return false;
  if (part_paths.size() != in.parts.size()) return false;
  for (usize p = 0; p < in.parts.size(); ++p) {
    if (!in.parts[p].save_to(part_paths[p])) return false;
  }
  return true;
}

}  // namespace perfbench
