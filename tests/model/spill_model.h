// Model of the spill-drain reclaim protocol (DESIGN.md §10; core side in
// ProfileLog::spill_store, host side in drain::Drainer::round) for the
// model checker. One shard, storage a ring of `cap` slots indexed by
// absolute-count % cap; three monotonic cursors:
//
//   tail       writer reservation (fetch_add)
//   published  in-order commit: a writer stores its window, waits until
//              published == its base, then publishes base + n
//   drained    drainer consumption: snapshot published, copy the window
//              [drained, snap) (capped at chunk_entries) out to the spill
//              file, zero the consumed slots, then advance drained
//
// Writer steps per flush: reserve; store × n (blocked until the window fits
// the free space, i.e. base + n <= drained + cap — the space wait);
// publish (blocked until published == base). Drainer steps per round:
// snap (blocked until there is consumable work); consume (copy + zero);
// advance. A writer may crash after any step (kLogFlushDie /
// kLogAppendDie), leaving a reserved-but-unpublished window that wedges
// later publishers — exactly the real protocol's behavior when the app is
// SIGKILLed mid-flush.
//
// IMPORTANT: this model blocks threads through enabled() conditions that
// read OTHER threads' variables (drained, published). The checker's
// sleep-set reduction only tracks next_action() footprints, so it can put
// to sleep a thread whose wake-up is another thread's step on a variable
// the sleeper never names — unsound here. Spill configurations must run
// with reduce = false; they are sized for the plain exhaustive DFS.
//
// The force-advance overflow path (a dead drainer exhausting the writer's
// spin budget, entries discarded and counted dropped) is runtime policy,
// not protocol: the model has no drop path, writers block forever and the
// checker treats the blocked state as terminal. tests/test_drain.cc covers
// force-advance behaviorally.
//
// Three seeded protocol bugs prove the checker can see a violation:
//   kNoSpaceCheck   — writers skip the space wait: a wrapped store clobbers
//                     a published-but-undrained slot (entry lost).
//   kNoReclaimZero  — the drainer consumes without zeroing: a later writer
//                     that reserves the recycled slot and crashes before
//                     storing leaves the STALE value behind, and recovery
//                     resurrects an entry that was already spilled.
//   kConsumeToTail  — the drainer snapshots tail instead of published:
//                     reserved-but-unstored slots are spilled as zeros
//                     (torn entries in a chunk file).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "tests/model/model_checker.h"
#include "tests/model/shm_log_model.h"  // WriterProgram

namespace teeperf::model {

enum class SpillBug {
  kNone,
  kNoSpaceCheck,   // writer side: store without the space wait
  kNoReclaimZero,  // drainer side: advance without zeroing consumed slots
  kConsumeToTail,  // drainer side: consume past published
};

class SpillLogModel {
 public:
  static constexpr int kCapacity = 4;    // ring slots (<= this per config)
  static constexpr int kMaxWriters = 2;

  struct WriterState {
    u8 pc = 0;
    u8 base = 0;  // absolute base of the current flush's window
  };
  struct DrainerState {
    u8 pc = 0;
    u8 snap = 0;  // published snapshot for the current round
    u8 len = 0;   // entries consumed this round, pending the advance
  };
  struct State {
    std::array<u8, kCapacity> slots{};  // 0 = never written / reclaimed
    u8 tail = 0;                        // absolute counts, monotonic
    u8 published = 0;
    u8 drained = 0;
    std::array<WriterState, kMaxWriters> w{};
    DrainerState d;
    std::vector<u8> spilled;  // what the drainer copied out, in order
    // Ghost state (not part of the protocol, excluded from fingerprints):
    // the absolute position of every executed store, so the terminal check
    // can tell a genuine tombstone from a never-reserved slot exactly.
    std::vector<u8> stored_abs;
  };

  // Thread 0..writers-1 are writers; thread writers is the drainer, running
  // `rounds` snap/consume/advance rounds of at most `chunk` entries each.
  SpillLogModel(std::vector<WriterProgram> writers, int cap, int rounds,
                int chunk, SpillBug bug = SpillBug::kNone)
      : cap_(cap), chunk_(chunk), bug_(bug) {
    for (const WriterProgram& p : writers) {
      std::vector<Step> steps;
      for (usize f = 0; f < p.batches.size(); ++f) {
        int n = p.batches[f];
        steps.push_back(
            {Step::kReserve, static_cast<u8>(f), 0, static_cast<u8>(n)});
        for (int i = 0; i < n; ++i) {
          steps.push_back({Step::kStore, static_cast<u8>(f),
                           static_cast<u8>(i), static_cast<u8>(n)});
        }
        steps.push_back(
            {Step::kPublish, static_cast<u8>(f), 0, static_cast<u8>(n)});
      }
      int len = static_cast<int>(steps.size());
      if (p.crash_after >= 0 && p.crash_after < len) len = p.crash_after;
      steps_.push_back(std::move(steps));
      len_.push_back(len);
    }
    drainer_steps_ = rounds * 3;
  }

  State initial() const { return State{}; }
  int num_threads() const { return static_cast<int>(steps_.size()) + 1; }

  bool enabled(const State& s, int t) const {
    if (t == drainer_thread()) {
      if (s.d.pc >= drainer_steps_) return false;
      if (s.d.pc % 3 == 0) {
        // Snap blocks until there is consumable work — idle rounds would
        // only multiply equivalent schedules.
        u8 limit = bug_ == SpillBug::kConsumeToTail ? s.tail : s.published;
        return limit > s.drained;
      }
      return true;
    }
    const WriterState& w = s.w[t];
    if (w.pc >= len_[static_cast<usize>(t)]) return false;
    const Step& st = steps_[static_cast<usize>(t)][w.pc];
    if (st.kind == Step::kStore && bug_ != SpillBug::kNoSpaceCheck) {
      // The space wait: the whole window must fit the reclaimed ring.
      return static_cast<int>(w.base) + st.n <= s.drained + cap_;
    }
    if (st.kind == Step::kPublish) return s.published == w.base;  // in order
    return true;
  }

  // Coarse footprints only — spill configs run unreduced (see header).
  Action next_action(const State&, int) const { return {0, true}; }

  void step(State* s, int t) const {
    if (t == drainer_thread()) {
      DrainerState& d = s->d;
      switch (d.pc % 3) {
        case 0:  // snap
          d.snap = bug_ == SpillBug::kConsumeToTail ? s->tail : s->published;
          break;
        case 1: {  // consume: copy out, zero (reclaim)
          int len = d.snap - s->drained;
          if (len > chunk_) len = chunk_;
          if (len < 0) len = 0;
          for (int i = 0; i < len; ++i) {
            u8& slot = s->slots[static_cast<usize>((s->drained + i) % cap_)];
            s->spilled.push_back(slot);
            if (bug_ != SpillBug::kNoReclaimZero) slot = 0;
          }
          d.len = static_cast<u8>(len);
          break;
        }
        case 2:  // advance: hand the space back to the writers
          s->drained = static_cast<u8>(s->drained + d.len);
          d.len = 0;
          break;
      }
      ++d.pc;
      return;
    }
    WriterState& w = s->w[t];
    const Step& st = steps_[static_cast<usize>(t)][w.pc];
    switch (st.kind) {
      case Step::kReserve:
        w.base = s->tail;
        s->tail = static_cast<u8>(s->tail + st.n);
        break;
      case Step::kStore:
        s->slots[static_cast<usize>((w.base + st.idx) % cap_)] =
            value_of(t, st.flush, st.idx);
        s->stored_abs.push_back(static_cast<u8>(w.base + st.idx));
        break;
      case Step::kPublish:
        s->published = static_cast<u8>(w.base + st.n);
        break;
    }
    ++w.pc;
  }

  // Recovery = the spilled sequence followed by the live residue
  // [drained, tail) — exactly what walk_session() stitches (chunks, then the
  // compact dump of the remaining windows). Committed work is computed from
  // each thread's RUNTIME pc, not its static program: blocked threads end
  // mid-program and that is a legal terminal.
  std::string check_terminal(const State& s) const {
    int reserved = 0;
    std::vector<u8> stored;
    for (int t = 0; t < num_threads() - 1; ++t) {
      const auto& prog = steps_[static_cast<usize>(t)];
      for (int i = 0; i < s.w[t].pc; ++i) {
        const Step& st = prog[static_cast<usize>(i)];
        if (st.kind == Step::kReserve) reserved += st.n;
        if (st.kind == Step::kStore) {
          stored.push_back(value_of(t, st.flush, st.idx));
        }
      }
    }
    if (s.tail != reserved) {
      return "tail " + std::to_string(s.tail) + " != reserved " +
             std::to_string(reserved);
    }
    if (!(s.drained <= s.published && s.published <= s.tail)) {
      return "cursor order violated: drained " + std::to_string(s.drained) +
             " published " + std::to_string(s.published) + " tail " +
             std::to_string(s.tail);
    }
    if (s.spilled.size() != s.drained) {
      return "spilled " + std::to_string(s.spilled.size()) +
             " entries but drained cursor is " + std::to_string(s.drained);
    }
    for (u8 v : s.spilled) {
      if (v == 0) return "tombstone / unpublished slot spilled to a chunk";
    }
    // Residue: the undrained window, zeros = torn-tail tombstones. Clamped
    // to one lap of the ring, like the real serializer: reservation is
    // ungated, so blocked writers can run tail past drained + cap, and the
    // absolute positions beyond the lap alias slots already scanned (they
    // are reserved-but-unstorable, physically nonexistent).
    int window_hi = s.tail;
    if (window_hi > s.drained + cap_) window_hi = s.drained + cap_;
    std::vector<u8> residue;
    int tombstones = 0;
    for (int a = s.drained; a < window_hi; ++a) {
      u8 v = s.slots[static_cast<usize>(a % cap_)];
      if (v == 0) {
        ++tombstones;
      } else {
        residue.push_back(v);
      }
    }
    // Exactly-once: spilled + residue is the stored multiset.
    std::vector<u8> recovered = s.spilled;
    recovered.insert(recovered.end(), residue.begin(), residue.end());
    std::vector<u8> pool = stored;
    for (u8 v : recovered) {
      bool found = false;
      for (u8& p : pool) {
        if (p == v) {
          p = 0xff;
          found = true;
          break;
        }
      }
      if (!found) {
        return "recovered entry " + std::to_string(v) +
               " was never committed, or twice (clobber or stale "
               "resurrection)";
      }
    }
    for (u8 p : pool) {
      if (p != 0xff) return "committed entry " + std::to_string(p) + " lost";
    }
    // Zeroing invariant, exact via the ghost store positions: a slot in the
    // live window is zero iff its absolute position was never stored (a
    // crashed writer's tombstone, or reclaimed space not yet re-stored).
    int expected_tombstones = 0;
    for (int a = s.drained; a < window_hi; ++a) {
      bool written = false;
      for (u8 w : s.stored_abs) {
        if (w == a) {
          written = true;
          break;
        }
      }
      if (!written) ++expected_tombstones;
    }
    if (tombstones != expected_tombstones) {
      return "tombstone count " + std::to_string(tombstones) +
             " != never-stored window positions " +
             std::to_string(expected_tombstones) +
             " (reclaimed slot not zeroed, or a store lost)";
    }
    // Per-writer program order across the stitched recovery sequence.
    for (int t = 0; t < num_threads() - 1; ++t) {
      int last = -1;
      for (u8 v : recovered) {
        if (writer_of(v) != t) continue;
        int key = order_key(v);
        if (key <= last) {
          return "writer " + std::to_string(t) +
                 " entries out of program order in recovery";
        }
        last = key;
      }
    }
    return "";
  }

  std::string fingerprint(const State& s) const {
    std::string fp;
    fp.reserve(static_cast<usize>(cap_) * 4 + s.spilled.size() * 4 + 16);
    fp += std::to_string(s.tail);
    fp += '/';
    fp += std::to_string(s.published);
    fp += '/';
    fp += std::to_string(s.drained);
    for (int i = 0; i < cap_; ++i) {
      fp += ':';
      fp += std::to_string(s.slots[static_cast<usize>(i)]);
    }
    fp += '|';
    for (u8 v : s.spilled) {
      fp += std::to_string(v);
      fp += ',';
    }
    return fp;
  }

 private:
  struct Step {
    enum Kind : u8 { kReserve, kStore, kPublish } kind;
    u8 flush;
    u8 idx;
    u8 n;
  };

  int drainer_thread() const { return static_cast<int>(steps_.size()); }

  // Same encoding as ShmLogModel: unique nonzero value per
  // (writer, flush, index), decodable for the order check.
  static u8 value_of(int writer, int flush, int idx) {
    return static_cast<u8>(1 + writer * 100 + flush * 10 + idx);
  }
  static int writer_of(u8 v) { return (v - 1) / 100; }
  static int order_key(u8 v) { return (v - 1) % 100; }

  std::vector<std::vector<Step>> steps_;
  std::vector<int> len_;
  int drainer_steps_;
  int cap_;
  int chunk_;
  SpillBug bug_;
};

}  // namespace teeperf::model
