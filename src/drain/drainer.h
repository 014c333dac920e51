// Host-side streaming drainer (DESIGN.md §10).
//
// Runs inside teeperf_record while the application executes. Each round it
// snapshots every shard's published cursor, copies the consumable window
// [drained, published) out of shared memory once, into a chunk buffer it
// reuses across rounds, checksums that copy, persists it as a CRC-framed
// chunk file (write(2) into the page cache, no fsync), zeroes the consumed slots (restoring the tombstone invariant
// for the next lap) and only then advances the shm-resident drain cursor —
// which is what lets writers reclaim the space. Crash safety comes from the
// persist-before-advance order: a drainer death at any point loses no
// entries, at worst it leaves a torn last chunk (overwritten on resume) or
// a persisted-but-unadvanced window (deduplicated by the loader via the
// absolute start cursors recorded in every chunk).
#pragma once

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/log_format.h"
#include "drain/chunk_format.h"

namespace teeperf::drain {

struct DrainerOptions {
  std::string prefix;            // chunks land at "<prefix>.seg.NNNN"
  u64 chunk_entries = 1u << 15;  // per-shard consume cap per round/chunk
  u64 poll_interval_us = 2000;   // idle sleep between rounds
};

class Drainer {
 public:
  Drainer(ProfileLog* log, DrainerOptions opts);
  ~Drainer();

  Drainer(const Drainer&) = delete;
  Drainer& operator=(const Drainer&) = delete;

  // Scans `prefix` for chunks left by a previous drainer incarnation (the
  // cross-process resume path: cursors live in shm, chunk files on disk)
  // and starts the background thread. A torn trailing chunk is adopted for
  // overwrite — its window was never marked drained. Returns false if the
  // log does not run the spill protocol.
  bool start();

  // Stops the background thread without a final drain. Cursors stay in
  // shm, so a later start()/restart() resumes exactly where this left off.
  void stop();

  // True when the thread exited on its own (fault injection or I/O error).
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  // Revives a dead drainer. Consumption resumes from the shm cursors; a
  // torn chunk left by the dead incarnation is overwritten because its
  // sequence number was never advanced.
  bool restart();

  // Synchronously consumes everything published and not yet drained. Call
  // after writers have stopped (recorder dump path); the unpublished
  // remainder [published, tail) — crashed writers' reservations — stays in
  // shm for the residue dump. False if a fault or I/O error interrupted
  // the drain (the unconsumed window then also stays for the residue).
  bool final_drain();

  struct Stats {
    u64 drained_entries = 0;
    u64 spilled_bytes = 0;
    u64 chunks = 0;
    u64 lag_entries = 0;  // published - drained, summed over shards
    bool dead = false;
  };
  Stats stats() const;

 private:
  void run();
  // One consume cycle. Returns false when the drainer must die (fault
  // injection or I/O failure); *idle is set when nothing was consumable.
  bool round(bool* idle);

  ProfileLog* log_;
  DrainerOptions opts_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> dead_{false};
  std::atomic<u64> drained_entries_{0};
  std::atomic<u64> spilled_bytes_{0};
  std::atomic<u64> chunks_{0};
  u32 seq_ = 0;  // next chunk number; owned by the drain thread between
                 // start/join boundaries
  // Per-round scratch, owned the same way: the chunk buffer every round
  // copies its windows into (reused, so a round allocates nothing once the
  // buffer has grown), and each shard's window cut.
  ChunkBuilder chunk_;
  std::vector<u64> starts_;
  std::vector<u64> lens_;
};

}  // namespace teeperf::drain
