#include "analyzer/mprof.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "analyzer/fold.h"
#include "common/crc32c.h"
#include "common/fileutil.h"

namespace teeperf::analyzer {

namespace {

// --- serialization primitives (little-endian memcpy, like every other
// --- on-disk structure in this repo) -------------------------------------

void put_u64(std::string& out, u64 v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_u32(std::string& out, u32 v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<u32>(s.size()));
  out.append(s);
}

// Bounds-checked cursor over the payload. Every read either succeeds or
// flips `ok` — the loader checks once per record and rejects the file.
struct Reader {
  const char* p;
  const char* end;
  bool ok = true;

  bool take(void* dst, usize n) {
    if (static_cast<usize>(end - p) < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    return true;
  }
  u64 u64v() {
    u64 v = 0;
    take(&v, sizeof(v));
    return v;
  }
  u32 u32v() {
    u32 v = 0;
    take(&v, sizeof(v));
    return v;
  }
  double f64v() {
    double v = 0;
    take(&v, sizeof(v));
    return v;
  }
  std::string str() {
    u32 n = u32v();
    if (!ok || static_cast<usize>(end - p) < n) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    return s;
  }
  bool done() const { return ok && p == end; }
};

bool fail(std::string* error, const char* why) {
  if (error) *error = why;
  return false;
}

// a += b with u64 overflow detection.
bool add_ck(u64& a, u64 b) { return !__builtin_add_overflow(a, b, &a); }

// Where one of `from`'s records lands in `into`: the node holding the same
// key, or the node a new key goes in front of (end() past the last).
template <class Map>
struct Slot {
  typename Map::iterator at;
  bool found;
};

// One lockstep walk of two maps sorted the same way: at most
// |into| + |from| key comparisons, no lookup from the root. Fills one slot
// per record of `from`, and fails (before anything changes) as soon as a
// matched pair does not `fit`, i.e. a sum would overflow.
template <class Map, class Fits>
bool place(Map& into, const Map& from, std::vector<Slot<Map>>& slots,
           Fits fits) {
  slots.reserve(from.size());
  auto it = into.begin();
  for (const auto& [key, val] : from) {
    bool found = false;
    for (; it != into.end(); ++it) {
      auto c = it->first <=> key;
      if (c >= 0) {
        found = c == 0;
        break;
      }
    }
    if (found && !fits(it->second, val)) return false;
    slots.push_back({it, found});
  }
  return true;
}

// Applies a walk that `place` accepted: matched records combine in place,
// new ones are inserted at their slot (a correct hint, so O(1) each). A
// self-merge only ever matches, so `from` is never changed under the loop.
template <class Map, class Combine>
void apply(Map& into, const Map& from, const std::vector<Slot<Map>>& slots,
           Combine combine) {
  usize i = 0;
  for (const auto& [key, val] : from) {
    const Slot<Map>& s = slots[i++];
    if (s.found) {
      combine(s.at->second, val);
    } else {
      into.emplace_hint(s.at, key, val);
    }
  }
}

// A caller->callee edge by method id; the caller is 0 on a root edge.
struct EdgeIds {
  u64 caller = 0;
  u64 callee = 0;
  bool from_root = false;
  bool operator==(const EdgeIds&) const = default;
};
struct EdgeIdsHash {
  usize operator()(const EdgeIds& k) const {
    return std::hash<u64>{}(k.caller * 1099511628211ull ^ k.callee ^
                            (k.from_root ? 0x9e37ull : 0));
  }
};

// Whether a + b fits in a u64.
bool add_fits(u64 a, u64 b) {
  u64 sum;
  return !__builtin_add_overflow(a, b, &sum);
}

}  // namespace

MergeableProfile MergeableProfile::from_profile(const Profile& p) {
  return from_tree(p.path_tree());
}

MergeableProfile MergeableProfile::from_tree(const SessionTree& t) {
  MergeableProfile m;
  m.sessions = 1;
  m.ns_per_tick = t.ns_per_tick;
  const ReconstructionStats& rs = t.recon;
  m.stats = {rs.entries,        rs.stray_returns, rs.mismatched_returns,
             rs.unwound_frames, rs.incomplete,    rs.tombstones,
             t.thread_count};
  // Every node adds its aggregate to its method's and its edge's, by id
  // first, so each distinct method and edge is named and keyed once. Two
  // ids can symbolize to the same name (e.g. the same function registered
  // by two libraries); the name key absorbs both.
  const std::vector<PathNode>& nodes = t.tree.nodes();
  std::unordered_map<u64, NodeAgg> by_method;
  std::unordered_map<EdgeIds, NodeAgg, EdgeIdsHash> by_edge;
  for (usize i = 1; i < nodes.size(); ++i) {
    const PathNode& node = nodes[i];
    bool from_root = node.parent == 0;
    by_method[node.method].add(node.agg);
    by_edge[EdgeIds{from_root ? 0 : nodes[node.parent].method, node.method,
                    from_root}]
        .add(node.agg);
  }
  MethodNames name(t);
  for (const auto& [id, a] : by_method) {
    MprofMethod& mm = m.methods[name(id)];
    mm.id = std::min(mm.id, id);
    mm.count += a.count;
    mm.inclusive_total += a.inclusive_total;
    mm.exclusive_total += a.exclusive_total;
    mm.min_inclusive = std::min(mm.min_inclusive, a.min_inclusive);
    mm.max_inclusive = std::max(mm.max_inclusive, a.max_inclusive);
  }
  for (const auto& [k, a] : by_edge) {
    MprofEdge& me = m.edges[MprofEdgeKey{
        k.from_root ? std::string() : name(k.caller), name(k.callee), k.from_root}];
    me.count += a.count;
    me.inclusive_total += a.inclusive_total;
  }

  // Folded stacks: the named root-to-frame path of every node with
  // exclusive time, summed over nodes whose paths name alike. A
  // depth-first walk from the root keeps one rolling path string, so each
  // path is built once. Child lists fill in one backward pass over the ids.
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
    if (node.agg.exclusive_total > 0) m.stacks[path] += node.agg.exclusive_total;
    for (u32 c = first_child[i]; c != 0; c = next_sibling[c]) {
      todo.push_back({c, path.size()});
    }
  }
  return m;
}

std::string MergeableProfile::save() const {
  // Size the file first so the frame and the payload go into one buffer
  // with one allocation; only the two CRCs are patched in afterwards.
  usize payload_bytes = 12 * sizeof(u64);
  for (const auto& [name, mm] : methods) {
    (void)mm;
    payload_bytes += sizeof(u32) + name.size() + 6 * sizeof(u64);
  }
  for (const auto& [key, me] : edges) {
    (void)me;
    payload_bytes += 2 * sizeof(u32) + key.caller.size() + key.callee.size() +
                     1 + 2 * sizeof(u64);
  }
  for (const auto& [path, ticks] : stacks) {
    (void)ticks;
    payload_bytes += sizeof(u32) + path.size() + sizeof(u64);
  }

  MprofFrame frame;
  frame.magic = kMprofMagic;
  frame.version = kMprofVersion;
  frame.payload_bytes = payload_bytes;
  std::string out;
  out.reserve(sizeof(MprofFrame) + payload_bytes);
  out.append(reinterpret_cast<const char*>(&frame), sizeof(MprofFrame));

  put_u64(out, methods.size());
  put_u64(out, edges.size());
  put_u64(out, stacks.size());
  put_u64(out, sessions);
  put_f64(out, ns_per_tick);
  put_u64(out, stats.entries);
  put_u64(out, stats.stray_returns);
  put_u64(out, stats.mismatched_returns);
  put_u64(out, stats.unwound_frames);
  put_u64(out, stats.incomplete);
  put_u64(out, stats.tombstones);
  put_u64(out, stats.thread_count);

  for (const auto& [name, mm] : methods) {
    put_str(out, name);
    put_u64(out, mm.id);
    put_u64(out, mm.count);
    put_u64(out, mm.inclusive_total);
    put_u64(out, mm.exclusive_total);
    put_u64(out, mm.min_inclusive);
    put_u64(out, mm.max_inclusive);
  }
  for (const auto& [key, me] : edges) {
    put_str(out, key.caller);
    put_str(out, key.callee);
    out.push_back(key.from_root ? 1 : 0);
    put_u64(out, me.count);
    put_u64(out, me.inclusive_total);
  }
  for (const auto& [path, ticks] : stacks) {
    put_str(out, path);
    put_u64(out, ticks);
  }

  frame.payload_crc =
      crc32c_mask(crc32c(out.data() + sizeof(MprofFrame), payload_bytes));
  frame.header_crc =
      crc32c_mask(crc32c(&frame, sizeof(MprofFrame) - 2 * sizeof(u32)));
  std::memcpy(out.data() + offsetof(MprofFrame, payload_crc),
              &frame.payload_crc, 2 * sizeof(u32));
  return out;
}

bool MergeableProfile::save_to(const std::string& path) const {
  return write_file(path, save());
}

std::optional<MergeableProfile> MergeableProfile::load_bytes(
    std::string_view bytes, std::string* error) {
  auto reject = [&](const char* why) -> std::optional<MergeableProfile> {
    fail(error, why);
    return std::nullopt;
  };
  if (bytes.size() < sizeof(MprofFrame)) return reject("shorter than frame");
  MprofFrame frame;
  std::memcpy(&frame, bytes.data(), sizeof(MprofFrame));
  if (frame.magic != kMprofMagic) return reject("bad magic");
  u32 want =
      crc32c_mask(crc32c(bytes.data(), sizeof(MprofFrame) - 2 * sizeof(u32)));
  if (frame.header_crc != want) return reject("frame checksum mismatch");
  if (frame.version != kMprofVersion) return reject("unsupported version");
  if (frame.payload_bytes != bytes.size() - sizeof(MprofFrame)) {
    return reject("payload truncated");
  }
  std::string_view body = bytes.substr(sizeof(MprofFrame));
  if (frame.payload_crc != crc32c_mask(crc32c(body.data(), body.size()))) {
    return reject("payload checksum mismatch");
  }

  Reader r{body.data(), body.data() + body.size()};
  u64 method_count = r.u64v();
  u64 edge_count = r.u64v();
  u64 stack_count = r.u64v();
  MergeableProfile m;
  m.sessions = r.u64v();
  m.ns_per_tick = r.f64v();
  m.stats.entries = r.u64v();
  m.stats.stray_returns = r.u64v();
  m.stats.mismatched_returns = r.u64v();
  m.stats.unwound_frames = r.u64v();
  m.stats.incomplete = r.u64v();
  m.stats.tombstones = r.u64v();
  m.stats.thread_count = r.u64v();
  if (!r.ok) return reject("truncated header");
  if (!std::isfinite(m.ns_per_tick) || m.ns_per_tick < 0.0) {
    return reject("invalid tick rate");
  }
  // Each record consumes tens of bytes; a count the payload cannot possibly
  // hold is rejected up front instead of looping to the inevitable failure.
  u64 budget = body.size();
  if (method_count > budget || edge_count > budget || stack_count > budget) {
    return reject("record count exceeds payload");
  }

  // Records arrive strictly sorted (checked against the last key stored),
  // so each one is appended at end() with the key moved in: O(1) per
  // record, and every key string is built exactly once. The strict check
  // is the only duplicate guard — a hinted insert keeps the first of two
  // equal keys without a word.
  for (u64 i = 0; i < method_count; ++i) {
    std::string name = r.str();
    MprofMethod mm;
    mm.id = r.u64v();
    mm.count = r.u64v();
    mm.inclusive_total = r.u64v();
    mm.exclusive_total = r.u64v();
    mm.min_inclusive = r.u64v();
    mm.max_inclusive = r.u64v();
    if (!r.ok) return reject("truncated method record");
    if (name.empty()) return reject("empty method name");
    if (i > 0 && name <= m.methods.rbegin()->first) {
      return reject("methods not strictly sorted");
    }
    if (mm.count == 0) return reject("method with zero count");
    if (mm.exclusive_total > mm.inclusive_total) {
      return reject("exclusive exceeds inclusive");
    }
    if (mm.min_inclusive > mm.max_inclusive) return reject("min exceeds max");
    if (mm.max_inclusive > mm.inclusive_total) {
      return reject("max exceeds inclusive total");
    }
    m.methods.emplace_hint(m.methods.end(), std::move(name), mm);
  }

  for (u64 i = 0; i < edge_count; ++i) {
    MprofEdgeKey k;
    k.caller = r.str();
    k.callee = r.str();
    u8 root = 0;
    r.take(&root, 1);
    MprofEdge me;
    me.count = r.u64v();
    me.inclusive_total = r.u64v();
    if (!r.ok) return reject("truncated edge record");
    if (root > 1) return reject("non-boolean from_root");
    k.from_root = root != 0;
    if (k.from_root != k.caller.empty()) {
      return reject("root flag disagrees with caller");
    }
    if (k.callee.empty()) return reject("empty callee name");
    if (i > 0 && !(m.edges.rbegin()->first < k)) {
      return reject("edges not strictly sorted");
    }
    if (me.count == 0) return reject("edge with zero count");
    m.edges.emplace_hint(m.edges.end(), std::move(k), me);
  }

  for (u64 i = 0; i < stack_count; ++i) {
    std::string path = r.str();
    u64 ticks = r.u64v();
    if (!r.ok) return reject("truncated stack record");
    if (path.empty()) return reject("empty stack path");
    if (i > 0 && path <= m.stacks.rbegin()->first) {
      return reject("stacks not strictly sorted");
    }
    if (ticks == 0) return reject("stack with zero ticks");
    m.stacks.emplace_hint(m.stacks.end(), std::move(path), ticks);
  }

  if (!r.done()) return reject("trailing bytes after records");
  return m;
}

std::optional<MergeableProfile> MergeableProfile::load(const std::string& path,
                                                       std::string* error) {
  auto raw = read_file(path);
  if (!raw) {
    fail(error, "cannot read file");
    return std::nullopt;
  }
  return load_bytes(*raw, error);
}

bool MergeableProfile::merge(const MergeableProfile& other) {
  // Check every addition before changing anything: a half-applied merge
  // would silently corrupt fleet rollups, so a refused one leaves *this
  // byte-identical.
  u64 merged_sessions = sessions;
  MprofStats merged_stats = stats;
  if (!add_ck(merged_sessions, other.sessions) ||
      !add_ck(merged_stats.entries, other.stats.entries) ||
      !add_ck(merged_stats.stray_returns, other.stats.stray_returns) ||
      !add_ck(merged_stats.mismatched_returns,
              other.stats.mismatched_returns) ||
      !add_ck(merged_stats.unwound_frames, other.stats.unwound_frames) ||
      !add_ck(merged_stats.incomplete, other.stats.incomplete) ||
      !add_ck(merged_stats.tombstones, other.stats.tombstones) ||
      !add_ck(merged_stats.thread_count, other.stats.thread_count)) {
    return false;
  }
  std::vector<Slot<decltype(methods)>> method_slots;
  std::vector<Slot<decltype(edges)>> edge_slots;
  std::vector<Slot<decltype(stacks)>> stack_slots;
  if (!place(methods, other.methods, method_slots,
             [](const MprofMethod& a, const MprofMethod& b) {
               return add_fits(a.count, b.count) &&
                      add_fits(a.inclusive_total, b.inclusive_total) &&
                      add_fits(a.exclusive_total, b.exclusive_total);
             }) ||
      !place(edges, other.edges, edge_slots,
             [](const MprofEdge& a, const MprofEdge& b) {
               return add_fits(a.count, b.count) &&
                      add_fits(a.inclusive_total, b.inclusive_total);
             }) ||
      !place(stacks, other.stacks, stack_slots, add_fits)) {
    return false;
  }

  // Nothing can fail from here on.
  sessions = merged_sessions;
  stats = merged_stats;
  if (other.ns_per_tick > 0.0) {
    ns_per_tick = ns_per_tick > 0.0 ? std::max(ns_per_tick, other.ns_per_tick)
                                    : other.ns_per_tick;
  }
  apply(methods, other.methods, method_slots,
        [](MprofMethod& a, const MprofMethod& b) {
          a.id = std::min(a.id, b.id);
          a.count += b.count;
          a.inclusive_total += b.inclusive_total;
          a.exclusive_total += b.exclusive_total;
          a.min_inclusive = std::min(a.min_inclusive, b.min_inclusive);
          a.max_inclusive = std::max(a.max_inclusive, b.max_inclusive);
        });
  apply(edges, other.edges, edge_slots, [](MprofEdge& a, const MprofEdge& b) {
    a.count += b.count;
    a.inclusive_total += b.inclusive_total;
  });
  apply(stacks, other.stacks, stack_slots, [](u64& a, u64 b) { a += b; });
  return true;
}

u64 MergeableProfile::total_exclusive() const {
  u64 t = 0;
  for (const auto& [name, mm] : methods) {
    (void)name;
    t += mm.exclusive_total;
  }
  return t;
}

std::string MergeableProfile::folded() const {
  std::string out;
  for (const auto& [path, ticks] : stacks) {
    out += path;
    out += ' ';
    out += std::to_string(ticks);
    out += '\n';
  }
  return out;
}

}  // namespace teeperf::analyzer
