// Property tests for the mergeable profile algebra (analyzer/mprof.h,
// DESIGN.md §12) plus fail-closed loader coverage:
//
//  - Partition property: split one session's threads into random parts,
//    analyze each part alone, merge the parts in shuffled orders and random
//    tree groupings — every merge lands on the byte-identical aggregate,
//    and its methods/edges/stacks/stats equal the whole-session profile.
//  - Algebra laws held directly: associativity, commutativity, and the
//    empty profile as identity.
//  - Canonical serialization: save(load(save(x))) == save(x).
//  - Hostile inputs: every strict prefix and every single bit flip of a
//    valid .mprof rejects; semantically impossible payloads behind a valid
//    CRC frame (zero counts, unsorted keys, exclusive > inclusive, trailing
//    bytes, ...) reject; merges that would overflow u64 counters fail
//    closed and leave the target untouched.
//  - The in-place merge is held byte-equal to the copy-then-merge it
//    replaced (kept below as the reference) over seeded random profiles.
#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyzer/mprof.h"
#include "analyzer/stream.h"
#include "common/crc32c.h"
#include "core/log_format.h"

namespace teeperf {
namespace {

using analyzer::MergeableProfile;
using analyzer::MprofEdgeKey;
using analyzer::MprofFrame;
using analyzer::MprofMethod;

// Deterministic xorshift64: the partition/shuffle choices must replay
// identically run to run, or a failure would not reproduce.
struct Rng {
  u64 s;
  u64 next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  u64 below(u64 n) { return n ? next() % n : 0; }
};

constexpr u64 kThreads = 8;

struct Step {
  EventKind kind;
  u64 addr;
  u64 tid;
  u64 counter;
};

// One deterministic multi-thread session with shared methods across threads
// (so merged min/max aggregation is exercised) and deliberate defects: a
// mismatched return, a stray return, and an unterminated call. Counters are
// per-thread, so any thread subset of the script is itself a valid stream.
std::vector<Step> scripted_steps() {
  std::vector<Step> steps;
  u64 counters[kThreads];
  for (u64 t = 0; t < kThreads; ++t) counters[t] = 100 + t;
  for (u64 rep = 0; rep < 30; ++rep) {
    for (u64 tid = 0; tid < kThreads; ++tid) {
      u64& c = counters[tid];
      // Inner durations vary per (rep, tid) so min != max per method.
      u64 step = 1 + (rep + tid) % 5;
      u64 base = 0x1000 * (tid % 3 + 1);
      steps.push_back({EventKind::kCall, base, tid, c += step});
      steps.push_back({EventKind::kCall, base + 1, tid, c += step});
      steps.push_back({EventKind::kCall, 0x5000, tid, c += step});
      steps.push_back({EventKind::kReturn, 0x5000, tid, c += step});
      steps.push_back({EventKind::kReturn, base + 1, tid, c += step});
      if (rep == 10 && tid == 3) {
        // Not on the stack while `base` still is: a mismatched return.
        steps.push_back({EventKind::kReturn, 0xdead, tid, c += step});
      }
      steps.push_back({EventKind::kReturn, base, tid, c += step});
      if (rep == 20 && tid == 4) {
        // Empty stack: a stray return.
        steps.push_back({EventKind::kReturn, 0xbeef, tid, c += step});
      }
    }
  }
  // Left open at end of log: an incomplete invocation.
  steps.push_back({EventKind::kCall, 0x7777, 5, counters[5] += 3});
  return steps;
}

bool contains(const std::vector<u64>& tids, u64 tid) {
  for (u64 t : tids) {
    if (t == tid) return true;
  }
  return false;
}

// Analyzes only the scripted steps belonging to `tids` — thread granularity
// is the finest partition the merge property can hold at, because a call
// stack never spans two threads but always spans its thread's entries.
MergeableProfile mprof_of(const std::vector<u64>& tids) {
  std::vector<u8> buf(ProfileLog::bytes_for(8192, 4));
  ProfileLog log;
  EXPECT_TRUE(log.init(buf.data(), buf.size(), 1,
                       log_flags::kActive | log_flags::kMultithread, 4));
  LogBatch batches[kThreads];
  for (const Step& s : scripted_steps()) {
    if (!contains(tids, s.tid)) continue;
    EXPECT_TRUE(batches[s.tid].record(log, s.kind, s.addr, s.tid, s.counter));
  }
  for (LogBatch& b : batches) EXPECT_TRUE(b.flush(log));
  return MergeableProfile::from_tree(analyzer::StreamAnalyzer::analyze_log(log, {}, 1.0));
}

std::vector<u64> all_threads() {
  std::vector<u64> tids;
  for (u64 t = 0; t < kThreads; ++t) tids.push_back(t);
  return tids;
}

// ---------------------------------------------------------- merge algebra

TEST(Mprof, PartitionMergeEqualsWhole) {
  MergeableProfile whole = mprof_of(all_threads());
  ASSERT_FALSE(whole.empty());
  ASSERT_GT(whole.stats.mismatched_returns, 0u);  // the defects are in play
  ASSERT_GT(whole.stats.stray_returns, 0u);
  ASSERT_GT(whole.stats.incomplete, 0u);
  Rng rng{0x9e3779b97f4a7c15ull};

  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE(trial);
    // Random partition of the thread set into up to 2..7 parts.
    u64 k = 2 + rng.below(6);
    std::vector<std::vector<u64>> groups(k);
    for (u64 tid = 0; tid < kThreads; ++tid) {
      groups[rng.below(k)].push_back(tid);
    }
    std::vector<MergeableProfile> parts;
    for (const std::vector<u64>& g : groups) {
      if (!g.empty()) parts.push_back(mprof_of(g));
    }

    std::string first_bytes;
    for (int order = 0; order < 3; ++order) {
      SCOPED_TRACE(order);
      std::vector<MergeableProfile> pool = parts;
      for (usize i = pool.size(); i > 1; --i) {
        std::swap(pool[i - 1], pool[rng.below(i)]);
      }
      MergeableProfile acc;
      if (order == 2) {
        // Random tree grouping: repeatedly merge two random pool elements.
        while (pool.size() > 1) {
          usize a = static_cast<usize>(rng.below(pool.size()));
          MergeableProfile lhs = std::move(pool[a]);
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(a));
          usize b = static_cast<usize>(rng.below(pool.size()));
          ASSERT_TRUE(lhs.merge(pool[b]));
          pool[b] = std::move(lhs);
        }
        acc = std::move(pool[0]);
      } else {
        // Left fold in shuffled order.
        for (const MergeableProfile& m : pool) ASSERT_TRUE(acc.merge(m));
      }

      std::string bytes = acc.save();
      if (order == 0) {
        first_bytes = bytes;
      } else {
        EXPECT_EQ(bytes, first_bytes) << "merge order changed the aggregate";
      }
      // The merged partition equals the whole session in every aggregate;
      // only `sessions` records how many leaves were folded in.
      EXPECT_EQ(acc.sessions, parts.size());
      EXPECT_EQ(acc.methods, whole.methods);
      EXPECT_EQ(acc.edges, whole.edges);
      EXPECT_EQ(acc.stacks, whole.stacks);
      EXPECT_EQ(acc.stats, whole.stats);
      EXPECT_EQ(acc.ns_per_tick, whole.ns_per_tick);
    }
  }
}

TEST(Mprof, MergeAssociativeAndCommutative) {
  MergeableProfile a = mprof_of({0, 1, 2});
  MergeableProfile b = mprof_of({3, 4});
  MergeableProfile c = mprof_of({5, 6, 7});

  MergeableProfile ab_c = a;
  ASSERT_TRUE(ab_c.merge(b));
  ASSERT_TRUE(ab_c.merge(c));

  MergeableProfile bc = b;
  ASSERT_TRUE(bc.merge(c));
  MergeableProfile a_bc = a;
  ASSERT_TRUE(a_bc.merge(bc));

  MergeableProfile cba = c;
  ASSERT_TRUE(cba.merge(b));
  ASSERT_TRUE(cba.merge(a));

  EXPECT_EQ(ab_c.save(), a_bc.save());
  EXPECT_EQ(ab_c.save(), cba.save());
  EXPECT_EQ(ab_c, a_bc);
  EXPECT_EQ(ab_c, cba);

  // Self-merge: m.merge(m) equals merging a copy of m.
  MergeableProfile self = ab_c;
  self.ns_per_tick = 2.5;
  const MergeableProfile copy = self;
  MergeableProfile with_copy = self;
  ASSERT_TRUE(with_copy.merge(copy));
  ASSERT_TRUE(self.merge(self));
  EXPECT_EQ(self.save(), with_copy.save());
  EXPECT_EQ(self.sessions, 2 * copy.sessions);
}

// Reference for MergeableProfile::merge: the plain copy-then-merge. Every
// key is looked up from the root of a copy, and the copy replaces the
// target only once every sum has fit.
bool reference_merge(MergeableProfile& target, const MergeableProfile& other) {
  MergeableProfile out = target;
  if (__builtin_add_overflow(out.sessions, other.sessions, &out.sessions)) {
    return false;
  }
  if (other.ns_per_tick > 0.0) {
    out.ns_per_tick = target.ns_per_tick > 0.0
                          ? std::max(target.ns_per_tick, other.ns_per_tick)
                          : other.ns_per_tick;
  }
  auto add = [](u64& a, u64 b) { return !__builtin_add_overflow(a, b, &a); };
  const analyzer::MprofStats& os = other.stats;
  if (!add(out.stats.entries, os.entries) ||
      !add(out.stats.stray_returns, os.stray_returns) ||
      !add(out.stats.mismatched_returns, os.mismatched_returns) ||
      !add(out.stats.unwound_frames, os.unwound_frames) ||
      !add(out.stats.incomplete, os.incomplete) ||
      !add(out.stats.tombstones, os.tombstones) ||
      !add(out.stats.thread_count, os.thread_count)) {
    return false;
  }
  for (const auto& [name, om] : other.methods) {
    MprofMethod& mm = out.methods[name];
    mm.id = std::min(mm.id, om.id);
    if (!add(mm.count, om.count) ||
        !add(mm.inclusive_total, om.inclusive_total) ||
        !add(mm.exclusive_total, om.exclusive_total)) {
      return false;
    }
    mm.min_inclusive = std::min(mm.min_inclusive, om.min_inclusive);
    mm.max_inclusive = std::max(mm.max_inclusive, om.max_inclusive);
  }
  for (const auto& [key, oe] : other.edges) {
    analyzer::MprofEdge& me = out.edges[key];
    if (!add(me.count, oe.count) ||
        !add(me.inclusive_total, oe.inclusive_total)) {
      return false;
    }
  }
  for (const auto& [path, ticks] : other.stacks) {
    if (!add(out.stacks[path], ticks)) return false;
  }
  target = std::move(out);
  return true;
}

// Which of a shared key universe a random profile draws from.
enum class Keys { kEven, kOdd, kLow, kHigh, kAll, kRandom };

bool takes(Keys keys, u64 k, u64 universe, Rng& rng) {
  switch (keys) {
    case Keys::kEven: return k % 2 == 0;
    case Keys::kOdd: return k % 2 == 1;
    case Keys::kLow: return k < universe / 2;
    case Keys::kHigh: return k >= universe / 2;
    case Keys::kAll: return true;
    case Keys::kRandom: return rng.below(3) != 0;
  }
  return false;
}

// Which record kind of a random profile may carry totals near 2^64, so
// that merges can be refused there after the kinds before it fit.
enum class Huge { kNone, kMethods, kEdges, kStacks };

// A random aggregate over keys 0..universe-1. Folded paths share a long
// prefix, like deep call trees do.
MergeableProfile random_profile(Rng& rng, Keys keys, u64 universe, Huge huge) {
  MergeableProfile m;
  m.sessions = 1 + rng.below(4);
  m.ns_per_tick = static_cast<double>(rng.below(3));
  m.stats.entries = rng.below(1000);
  m.stats.thread_count = 1 + rng.below(8);
  auto total = [&](Huge kind) {
    return huge == kind && rng.below(8) == 0 ? ~0ull - rng.below(1000)
                                             : 1 + rng.below(1000);
  };
  const std::string prefix = std::string(200, 'p') + ";main;";
  for (u64 k = 0; k < universe; ++k) {
    std::string name = "ns::f" + std::to_string(k);
    if (takes(keys, k, universe, rng)) {
      u64 incl = total(Huge::kMethods);
      u64 mn = rng.below(incl + 1);
      m.methods[name] = MprofMethod{k + rng.below(3), 1 + rng.below(50), incl,
                                    rng.below(incl + 1), mn,
                                    mn + rng.below(incl - mn + 1)};
    }
    if (takes(keys, k, universe, rng)) {
      bool root = k % 5 == 0;
      m.edges[MprofEdgeKey{root ? "" : "ns::f" + std::to_string(k / 2), name,
                           root}] = {1 + rng.below(50), total(Huge::kEdges)};
    }
    if (takes(keys, k, universe, rng)) {
      m.stacks[prefix + std::to_string(k % 7) + ";" + name] =
          total(Huge::kStacks);
    }
  }
  return m;
}

TEST(Mprof, InPlaceMergeMatchesCopyReference) {
  Rng rng{0x2545f4914f6cdd1dull};
  const std::pair<Keys, Keys> pairings[] = {
      {Keys::kEven, Keys::kOdd},       // interleaved, disjoint
      {Keys::kLow, Keys::kHigh},       // disjoint, other after target
      {Keys::kHigh, Keys::kLow},       // disjoint, other before target
      {Keys::kAll, Keys::kAll},        // identical key sets
      {Keys::kRandom, Keys::kRandom},  // random overlap
      {Keys::kAll, Keys::kRandom},
      {Keys::kRandom, Keys::kAll},
  };
  int refused = 0;
  for (int trial = 0; trial < 40; ++trial) {
    for (const auto& [a_keys, b_keys] : pairings) {
      SCOPED_TRACE(trial);
      Huge huge = static_cast<Huge>(trial % 4);
      u64 universe = rng.below(60);
      MergeableProfile a = random_profile(rng, a_keys, universe, huge);
      MergeableProfile b = random_profile(rng, b_keys, universe, huge);
      MergeableProfile want = a;
      bool want_ok = reference_merge(want, b);
      MergeableProfile got = a;
      EXPECT_EQ(got.merge(b), want_ok);
      EXPECT_EQ(got.save(), want.save());
      refused += !want_ok;
    }
  }
  EXPECT_GT(refused, 0) << "no trial exercised a refused merge";
}

TEST(Mprof, EmptyProfileIsMergeIdentity) {
  MergeableProfile a = mprof_of({0, 3, 6});
  std::string a_bytes = a.save();
  MergeableProfile empty;
  EXPECT_TRUE(empty.empty());

  MergeableProfile right = a;
  ASSERT_TRUE(right.merge(MergeableProfile{}));
  EXPECT_EQ(right.save(), a_bytes);

  MergeableProfile left;
  ASSERT_TRUE(left.merge(a));
  EXPECT_EQ(left.save(), a_bytes);

  MergeableProfile both;
  ASSERT_TRUE(both.merge(MergeableProfile{}));
  EXPECT_EQ(both.save(), MergeableProfile{}.save());
  EXPECT_TRUE(both.empty());
}

// ------------------------------------------------- canonical serialization

TEST(Mprof, SaveLoadRoundTripIsCanonical) {
  for (const MergeableProfile& m :
       {mprof_of(all_threads()), mprof_of({2}), MergeableProfile{}}) {
    std::string bytes = m.save();
    std::string err;
    auto loaded = MergeableProfile::load_bytes(bytes, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    EXPECT_EQ(*loaded, m);
    EXPECT_EQ(loaded->save(), bytes);  // save(load(x)) == x
  }
}

TEST(Mprof, FoldedMatchesStacksMap) {
  MergeableProfile m = mprof_of(all_threads());
  std::string folded = m.folded();
  ASSERT_FALSE(folded.empty());
  usize lines = 0;
  for (char ch : folded) lines += ch == '\n';
  EXPECT_EQ(lines, m.stacks.size());
  EXPECT_NE(folded.find("0x5000"), std::string::npos);
}

// ------------------------------------------------------- hostile loaders

TEST(Mprof, EveryTruncationRejects) {
  std::string bytes = mprof_of({0, 1}).save();
  for (usize len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        MergeableProfile::load_bytes(std::string_view(bytes.data(), len)))
        << "accepted a " << len << "-byte prefix of " << bytes.size();
  }
}

TEST(Mprof, EverySingleBitFlipRejects) {
  std::string bytes = mprof_of({0, 1}).save();
  for (usize i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ (1 << (i % 8)));
    EXPECT_FALSE(MergeableProfile::load_bytes(bad))
        << "accepted a bit flip at byte " << i;
  }
}

// The loader's CRC frame stops accidental corruption; the record validation
// behind it stops *adversarial* payloads with correct CRCs. These helpers
// build such payloads: arbitrary record bytes behind a freshly computed
// frame.
void put_u64(std::string& out, u64 v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_str(std::string& out, const std::string& s) {
  u32 n = static_cast<u32>(s.size());
  out.append(reinterpret_cast<const char*>(&n), sizeof(n));
  out.append(s);
}

std::string payload_header(u64 methods, u64 edges, u64 stacks,
                           double ns_per_tick = 0.0) {
  std::string p;
  put_u64(p, methods);
  put_u64(p, edges);
  put_u64(p, stacks);
  put_u64(p, 1);  // sessions
  put_f64(p, ns_per_tick);
  for (int i = 0; i < 7; ++i) put_u64(p, 0);  // stats
  return p;
}

void put_method(std::string& p, const std::string& name, u64 count, u64 incl,
                u64 excl, u64 mn, u64 mx) {
  put_str(p, name);
  put_u64(p, 1);  // id
  put_u64(p, count);
  put_u64(p, incl);
  put_u64(p, excl);
  put_u64(p, mn);
  put_u64(p, mx);
}

void put_edge(std::string& p, const std::string& caller,
              const std::string& callee, u8 from_root, u64 count, u64 incl) {
  put_str(p, caller);
  put_str(p, callee);
  p.push_back(static_cast<char>(from_root));
  put_u64(p, count);
  put_u64(p, incl);
}

std::string frame(const std::string& payload) {
  MprofFrame f;
  f.magic = analyzer::kMprofMagic;
  f.version = analyzer::kMprofVersion;
  f.payload_bytes = payload.size();
  f.payload_crc = crc32c_mask(crc32c(payload.data(), payload.size()));
  f.header_crc = crc32c_mask(crc32c(&f, sizeof(MprofFrame) - 2 * sizeof(u32)));
  std::string out(reinterpret_cast<const char*>(&f), sizeof(MprofFrame));
  out += payload;
  return out;
}

void expect_reject(const std::string& payload, const char* why_expected) {
  std::string err;
  auto m = MergeableProfile::load_bytes(frame(payload), &err);
  EXPECT_FALSE(m.has_value()) << "accepted payload expected to fail with: "
                              << why_expected;
  if (!m) {
    EXPECT_EQ(err, why_expected);
  }
}

TEST(Mprof, HostilePayloadsBehindValidFramesReject) {
  {
    // Control: the helpers produce loader-accepted bytes for sane input.
    std::string p = payload_header(1, 1, 1);
    put_method(p, "f", 2, 10, 6, 3, 7);
    put_edge(p, "", "f", 1, 2, 10);
    put_str(p, "f");
    put_u64(p, 6);
    std::string err;
    auto ok = MergeableProfile::load_bytes(frame(p), &err);
    ASSERT_TRUE(ok.has_value()) << err;
    EXPECT_EQ(ok->save(), frame(p));  // and canonically so
  }
  {
    // A record count no payload could hold loops forever if trusted.
    expect_reject(payload_header(u64{1} << 60, 0, 0),
                  "record count exceeds payload");
  }
  {
    std::string p = payload_header(1, 0, 0);
    put_method(p, "f", 0, 10, 6, 3, 7);
    expect_reject(p, "method with zero count");
  }
  {
    std::string p = payload_header(1, 0, 0);
    put_method(p, "", 2, 10, 6, 3, 7);
    expect_reject(p, "empty method name");
  }
  {
    std::string p = payload_header(2, 0, 0);
    put_method(p, "b", 2, 10, 6, 3, 7);
    put_method(p, "a", 2, 10, 6, 3, 7);
    expect_reject(p, "methods not strictly sorted");
  }
  {
    std::string p = payload_header(2, 0, 0);
    put_method(p, "a", 2, 10, 6, 3, 7);
    put_method(p, "a", 2, 10, 6, 3, 7);  // duplicate key
    expect_reject(p, "methods not strictly sorted");
  }
  {
    std::string p = payload_header(1, 0, 0);
    put_method(p, "f", 2, 10, 11, 3, 7);
    expect_reject(p, "exclusive exceeds inclusive");
  }
  {
    std::string p = payload_header(1, 0, 0);
    put_method(p, "f", 2, 10, 6, 8, 7);
    expect_reject(p, "min exceeds max");
  }
  {
    std::string p = payload_header(1, 0, 0);
    put_method(p, "f", 2, 10, 6, 3, 11);
    expect_reject(p, "max exceeds inclusive total");
  }
  {
    // from_root set but a caller named: the two encodings of "root edge"
    // must never diverge or merges would split the same edge in two.
    std::string p = payload_header(0, 1, 0);
    put_edge(p, "x", "f", 1, 2, 10);
    expect_reject(p, "root flag disagrees with caller");
  }
  {
    std::string p = payload_header(0, 1, 0);
    put_edge(p, "", "f", 0, 2, 10);  // root encoded only by the empty caller
    expect_reject(p, "root flag disagrees with caller");
  }
  {
    std::string p = payload_header(0, 1, 0);
    put_edge(p, "", "", 1, 2, 10);
    expect_reject(p, "empty callee name");
  }
  {
    std::string p = payload_header(0, 1, 0);
    put_edge(p, "", "f", 2, 2, 10);
    expect_reject(p, "non-boolean from_root");
  }
  {
    std::string p = payload_header(0, 1, 0);
    put_edge(p, "", "f", 1, 0, 10);
    expect_reject(p, "edge with zero count");
  }
  {
    std::string p = payload_header(0, 2, 0);
    put_edge(p, "f", "g", 0, 2, 10);
    put_edge(p, "f", "g", 0, 2, 10);  // duplicate key
    expect_reject(p, "edges not strictly sorted");
  }
  {
    std::string p = payload_header(0, 0, 1);
    put_str(p, "f;g");
    put_u64(p, 0);
    expect_reject(p, "stack with zero ticks");
  }
  {
    std::string p = payload_header(0, 0, 2);
    put_str(p, "f;g");
    put_u64(p, 3);
    put_str(p, "f;g");  // duplicate key
    put_u64(p, 3);
    expect_reject(p, "stacks not strictly sorted");
  }
  {
    std::string p = payload_header(0, 0, 2);
    put_str(p, "f;g");
    put_u64(p, 3);
    put_str(p, "f;a");
    put_u64(p, 3);
    expect_reject(p, "stacks not strictly sorted");
  }
  {
    std::string p = payload_header(0, 0, 0);
    p += "extra";
    expect_reject(p, "trailing bytes after records");
  }
  {
    expect_reject(payload_header(0, 0, 0,
                                 std::numeric_limits<double>::quiet_NaN()),
                  "invalid tick rate");
  }
  {
    expect_reject(payload_header(0, 0, 0, -1.0), "invalid tick rate");
  }
}

TEST(Mprof, OverflowingMergeFailsClosedLeavingTargetUntouched) {
  // Two .mprofs that are individually loader-valid but whose counters sum
  // past 2^64. A wrapping merge would turn a fleet's biggest hotspot into a
  // small lie; merge() must refuse and leave the target byte-identical.
  MergeableProfile big;
  big.sessions = 1;
  big.methods["hot"] = MprofMethod{/*id=*/1, /*count=*/1,
                                   /*inclusive_total=*/~0ull,
                                   /*exclusive_total=*/~0ull,
                                   /*min_inclusive=*/5, /*max_inclusive=*/5};
  big.edges[MprofEdgeKey{"", "hot", true}] = {1, ~0ull};
  big.stacks["hot"] = ~0ull;
  big.stats.entries = ~0ull;

  // The hostile pair survives the loader individually...
  std::string bytes = big.save();
  std::string err;
  auto loaded = MergeableProfile::load_bytes(bytes, &err);
  ASSERT_TRUE(loaded.has_value()) << err;

  // ...but merging them must fail closed.
  MergeableProfile target = big;
  EXPECT_FALSE(target.merge(*loaded));
  EXPECT_EQ(target.save(), bytes) << "failed merge mutated the target";

  // Each overflow channel individually: method totals, edge totals, stack
  // ticks, stats counters, and the sessions counter itself.
  MergeableProfile stacks_only;
  stacks_only.stacks["p"] = ~0ull;
  MergeableProfile t2 = stacks_only;
  EXPECT_FALSE(t2.merge(stacks_only));
  EXPECT_EQ(t2, stacks_only);

  MergeableProfile stats_only;
  stats_only.stats.thread_count = ~0ull;
  MergeableProfile t3 = stats_only;
  EXPECT_FALSE(t3.merge(stats_only));
  EXPECT_EQ(t3, stats_only);

  MergeableProfile sessions_only;
  sessions_only.sessions = ~0ull;
  MergeableProfile t4 = sessions_only;
  EXPECT_FALSE(t4.merge(sessions_only));
  EXPECT_EQ(t4, sessions_only);

  // A refused self-merge leaves the profile as it was.
  EXPECT_FALSE(big.merge(big));
  EXPECT_EQ(big.save(), bytes) << "failed self-merge mutated the target";

  // Only the last stack key overflows, after the methods, the edges and
  // the earlier stacks would all have merged cleanly: nothing may apply.
  MergeableProfile last = mprof_of(all_threads());
  MergeableProfile last_other = last;
  ASSERT_GT(last.stacks.size(), 1u);
  last_other.stacks.rbegin()->second = ~0ull;
  std::string last_bytes = last.save();
  EXPECT_FALSE(last.merge(last_other));
  EXPECT_EQ(last.save(), last_bytes) << "failed merge mutated the target";

  // A small, sane merge into the same target still works afterwards.
  MergeableProfile sane = mprof_of({0});
  MergeableProfile t5 = mprof_of({1});
  EXPECT_TRUE(t5.merge(sane));
  EXPECT_EQ(t5.sessions, 2u);
}

TEST(Mprof, NsPerTickReconciliation) {
  MergeableProfile zero;  // unset rate
  MergeableProfile slow;
  slow.ns_per_tick = 2.5;
  MergeableProfile fast;
  fast.ns_per_tick = 4.0;

  MergeableProfile a = zero;
  ASSERT_TRUE(a.merge(slow));
  EXPECT_EQ(a.ns_per_tick, 2.5);  // either zero → the other

  MergeableProfile b = slow;
  ASSERT_TRUE(b.merge(zero));
  EXPECT_EQ(b.ns_per_tick, 2.5);

  MergeableProfile c = slow;
  ASSERT_TRUE(c.merge(fast));
  MergeableProfile d = fast;
  ASSERT_TRUE(d.merge(slow));
  EXPECT_EQ(c.ns_per_tick, 4.0);  // both set → max, either order
  EXPECT_EQ(d.ns_per_tick, 4.0);
}

}  // namespace
}  // namespace teeperf
