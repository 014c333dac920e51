// The mergeable profile format (".mprof", DESIGN.md §12).
//
// A `.mprof` is the *aggregate* of a session — per-method timing rollups,
// dynamic call-graph edges and the folded-stack histogram — with every key
// a symbolized name instead of a method id. Name keying is what makes the
// format mergeable across sessions: method ids from different processes can
// collide with different meanings (each process has its own registry /
// address space), but "kv::Get" means the same thing everywhere. Every
// field is a sum, a min, or a max over that key space, so
//
//     merge(a, merge(b, c)) == merge(merge(a, b), c) == merge(c, merge(b, a))
//
// and the empty profile is the identity — fleet flame graphs can fold
// thousands of per-session `.mprof`s in any order, any grouping, on any
// host, and always land on the same bytes. The property tests in
// tests/test_mprof.cc hold this algebra to the letter.
//
// On disk the file is CRC-framed exactly like a spill chunk (header CRC +
// payload CRC, masked), records are strictly name-sorted, and the loader
// fails closed: unordered or duplicate keys, truncated records, impossible
// aggregates (exclusive > inclusive, min > max, zero counts) and trailing
// bytes all reject the file. Strict ordering makes the serialization
// canonical — save(load(x)) == x, and profile equality is byte equality.
#pragma once

#include <compare>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "analyzer/profile.h"
#include "common/types.h"

namespace teeperf::analyzer {

struct SessionTree;

inline constexpr u64 kMprofMagic = 0x54504D50524F4631ull;  // "TPMPROF1"
inline constexpr u32 kMprofVersion = 1;

// Frame ahead of the payload, same shape and CRC discipline as ChunkFrame.
struct MprofFrame {
  u64 magic = 0;
  u32 version = 0;
  u32 reserved = 0;  // zeroed: keeps serialized frames byte-deterministic
  u64 payload_bytes = 0;
  u32 payload_crc = 0;
  u32 header_crc = 0;
};
static_assert(sizeof(MprofFrame) == 32);

// Per-method aggregate. `id` keeps the *minimum* contributing method id —
// min is associative/commutative, and any single id is only a debugging
// breadcrumb once keys are names.
struct MprofMethod {
  u64 id = ~0ull;
  u64 count = 0;
  u64 inclusive_total = 0;
  u64 exclusive_total = 0;
  u64 min_inclusive = ~0ull;
  u64 max_inclusive = 0;
  bool operator==(const MprofMethod&) const = default;
};

// A call-graph edge keyed by symbolized names. Root edges (thread roots)
// carry an empty caller and from_root=true; the loader enforces that the
// two always agree.
struct MprofEdgeKey {
  std::string caller;
  std::string callee;
  bool from_root = false;
  auto operator<=>(const MprofEdgeKey&) const = default;
};

struct MprofEdge {
  u64 count = 0;
  u64 inclusive_total = 0;
  bool operator==(const MprofEdge&) const = default;
};

// Reconstruction health, summed across everything merged in.
struct MprofStats {
  u64 entries = 0;
  u64 stray_returns = 0;
  u64 mismatched_returns = 0;
  u64 unwound_frames = 0;
  u64 incomplete = 0;
  u64 tombstones = 0;
  u64 thread_count = 0;
  bool operator==(const MprofStats&) const = default;
};

class MergeableProfile {
 public:
  // Names a session's path tree (fold.h): its per-method, per-edge and
  // folded-path rollups, by symbolized name (resolve_name), combining ids
  // that share a name, with the tree's tick rate and health and
  // sessions == 1. Both from_profile and the streaming analyzer name their
  // aggregates here.
  static MergeableProfile from_tree(const SessionTree& t);

  // from_tree(p.path_tree()): the in-memory reference the streaming
  // analyzer is held differentially equal to.
  static MergeableProfile from_profile(const Profile& p);

  // Canonical serialization (frame + payload). Deterministic: equal
  // profiles serialize to equal bytes. Sized up front and written into one
  // buffer.
  std::string save() const;
  bool save_to(const std::string& path) const;

  // Fail-closed deserialization; on nullopt, *error (if given) says why.
  // Linear: each strictly sorted record is appended at the map's end.
  static std::optional<MergeableProfile> load_bytes(std::string_view bytes,
                                                    std::string* error = nullptr);
  static std::optional<MergeableProfile> load(const std::string& path,
                                              std::string* error = nullptr);

  // Folds `other` into this profile: counts/totals add, min/max combine,
  // sessions sum, tick rates reconcile (either zero → the other; both set →
  // max). Associative and commutative; MergeableProfile{} is the identity.
  // Returns false — leaving *this unchanged — if any u64 addition would
  // overflow (hostile inputs must not wrap counters into small lies).
  //
  // In place and copy-free: one lockstep walk of each pair of maps checks
  // every addition first (O(|this| + |other|) key comparisons), then the
  // sums apply and new keys go in at the positions that walk found.
  // m.merge(m) is allowed and equals merging a copy of m.
  bool merge(const MergeableProfile& other);

  bool empty() const {
    return methods.empty() && edges.empty() && stacks.empty();
  }
  u64 total_exclusive() const;

  // Folded stacks in flame-graph input form (already name-sorted).
  std::string folded() const;

  bool operator==(const MergeableProfile&) const = default;

  // Aggregates are public state, not behavior: the maps *are* the format,
  // ordered so iteration equals serialization order.
  std::map<std::string, MprofMethod> methods;
  std::map<MprofEdgeKey, MprofEdge> edges;
  std::map<std::string, u64> stacks;  // folded path → exclusive ticks
  MprofStats stats;
  double ns_per_tick = 0.0;
  u64 sessions = 0;  // leaf profiles folded into this aggregate
};

}  // namespace teeperf::analyzer
