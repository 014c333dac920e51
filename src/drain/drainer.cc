#include "drain/drainer.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/fileutil.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

namespace teeperf::drain {

Drainer::Drainer(ProfileLog* log, DrainerOptions opts)
    : log_(log), opts_(std::move(opts)) {}

Drainer::~Drainer() { stop(); }

bool Drainer::start() {
  if (!log_ || !log_->spill()) return false;
  // Snapshot the header fields the chunks carry here, on the owner's
  // thread: the drain thread then never reads a header word that another
  // thread writes, except `flags` through an atomic load.
  chunk_.set_session(*log_->header());
  // Resume scan: continue the chunk sequence where the previous incarnation
  // stopped. If its last chunk is torn (died mid-write), adopt that number
  // for overwrite — the window it holds was never marked drained, so the
  // rewrite loses nothing and the loader never sees the torn file.
  seq_ = 0;
  while (file_exists(chunk_path(opts_.prefix, seq_))) ++seq_;
  if (seq_ > 0) {
    auto last = read_file(chunk_path(opts_.prefix, seq_ - 1));
    if (!last || !parse_chunk(*last, nullptr, nullptr, nullptr)) --seq_;
  }
  stop_.store(false, std::memory_order_release);
  dead_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

void Drainer::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

bool Drainer::restart() {
  if (!log_ || !log_->spill()) return false;
  stop();  // joins the dead thread
  stop_.store(false, std::memory_order_release);
  dead_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
  return true;
}

bool Drainer::final_drain() {
  stop();
  if (!log_ || !log_->spill()) return false;
  // The drain thread is joined and this is the owner's thread: refresh the
  // header snapshot so the last chunks carry what the owner set since
  // start() (pid, ns_per_tick).
  chunk_.set_session(*log_->header());
  for (;;) {
    bool idle = false;
    if (!round(&idle)) {
      dead_.store(true, std::memory_order_release);
      return false;
    }
    if (idle) return true;
  }
}

void Drainer::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    bool idle = false;
    if (!round(&idle)) {
      dead_.store(true, std::memory_order_release);
      return;
    }
    // Keep consuming back-to-back while there is backlog; sleep only when
    // the published window was empty.
    if (idle) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(opts_.poll_interval_us));
    }
  }
}

bool Drainer::round(bool* idle) {
  *idle = true;
  // Fault point: the drainer process/thread dying between rounds. Nothing
  // is in flight, so the only observable effect is growing lag until a
  // supervisor restarts us — the protocol must lose nothing either way.
  if (fault::fires(fault_points::kDrainDie)) return false;

  // Snapshot every shard's consumable window first, so the chunk holds one
  // consistent cut; then copy each window once, straight from shm into the
  // reused chunk buffer, and checksum that copy. A writer force-advancing
  // over a window mid-round changes shm, never the bytes being summed.
  u32 nshards = log_->shard_count();
  starts_.assign(nshards, 0);
  lens_.assign(nshards, 0);
  u64 total = 0;
  for (u32 s = 0; s < nshards; ++s) {
    const LogShard* sh = log_->shard(s);
    u64 p = sh->published.load(std::memory_order_acquire);
    u64 d = sh->drained.load(std::memory_order_acquire);
    if (p <= d) continue;
    starts_[s] = d;
    lens_[s] = std::min(p - d, opts_.chunk_entries);
    total += lens_[s];
  }
  if (total == 0) return true;
  *idle = false;

  chunk_.begin(log_->header()->flags.load(std::memory_order_relaxed), nshards);
  for (u32 s = 0; s < nshards; ++s) {
    const LogShard* sh = log_->shard(s);
    const LogEntry* seg = log_->segment(s);
    u64 at = lens_[s] == 0 ? 0 : starts_[s] % sh->capacity;
    u64 head = std::min(sh->capacity - at, lens_[s]);
    chunk_.add_window(starts_[s], seg + at, head, seg, lens_[s] - head);
  }
  std::string_view chunk = chunk_.finish(seq_);
  // Fault point: dying mid-write, leaving a torn chunk on disk. The cursors
  // are not advanced and seq_ is not bumped, so a resumed drainer rewrites
  // the same chunk number and the window drains again — the loader never
  // has to trust a torn file that is followed by good ones. Only a prefix
  // is written; the buffer itself stays whole.
  bool torn = fault::fires(fault_points::kDrainChunkTorn);
  if (torn) {
    chunk = chunk.substr(
        0, sizeof(ChunkFrame) + (chunk.size() - sizeof(ChunkFrame)) / 2);
  }
  if (!write_file(chunk_path(opts_.prefix, seq_), chunk)) return false;
  if (torn) return false;

  // Reclaim, per shard: zero the consumed slots first (restores the
  // tombstone invariant for the next lap), then advance the drain cursor —
  // the release store is what hands the space back to writers. The CAS loop
  // tolerates a concurrent writer force-advance (dead-drainer overflow
  // path): a cursor already at or past our target is never moved back.
  for (u32 s = 0; s < nshards; ++s) {
    if (lens_[s] == 0) continue;
    LogShard* sh = log_->shard(s);
    u64 d = starts_[s];
    u64 len = lens_[s];
    u64 cap = sh->capacity;
    LogEntry* seg = log_->segment(s);
    u64 start = d % cap;
    u64 head = cap - start < len ? cap - start : len;
    std::memset(static_cast<void*>(seg + start), 0,
                static_cast<usize>(head) * sizeof(LogEntry));
    std::memset(static_cast<void*>(seg), 0,
                static_cast<usize>(len - head) * sizeof(LogEntry));
    u64 expect = d;
    while (expect < d + len &&
           !sh->drained.compare_exchange_weak(expect, d + len,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    }
  }
  drained_entries_.fetch_add(total, std::memory_order_relaxed);
  spilled_bytes_.fetch_add(chunk.size(), std::memory_order_relaxed);
  chunks_.fetch_add(1, std::memory_order_relaxed);
  ++seq_;
  return true;
}

Drainer::Stats Drainer::stats() const {
  Stats st;
  st.drained_entries = drained_entries_.load(std::memory_order_relaxed);
  st.spilled_bytes = spilled_bytes_.load(std::memory_order_relaxed);
  st.chunks = chunks_.load(std::memory_order_relaxed);
  st.dead = dead_.load(std::memory_order_acquire);
  for (u32 s = 0; log_ && s < log_->shard_count(); ++s) {
    const LogShard* sh = log_->shard(s);
    u64 p = sh->published.load(std::memory_order_acquire);
    u64 d = sh->drained.load(std::memory_order_acquire);
    if (p > d) st.lag_entries += p - d;
  }
  return st;
}

}  // namespace teeperf::drain
