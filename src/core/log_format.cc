#include "core/log_format.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <new>

#include "faultsim/fault.h"
#include "faultsim/fault_points.h"

namespace teeperf {

namespace {

// A reserved-but-never-written slot: the writer died between the tail
// fetch-and-add and the stores. A legitimate entry always has a nonzero
// address, so the all-zero pattern is a reliable tombstone.
inline bool is_tombstone(const LogEntry& e) {
  return e.kind_and_counter == 0 && e.addr == 0 && e.tid == 0;
}

// Spill-mode space-wait budget (ProfileLog::set_spill_wait_spins). Process-
// wide rather than per-log: it is a tuning knob, not log state, and keeping
// it out of the shared header means a misbehaving peer cannot zero it.
std::atomic<u64> g_spill_wait_spins{u64{1} << 27};

}  // namespace

void ProfileLog::set_spill_wait_spins(u64 n) {
  g_spill_wait_spins.store(n, std::memory_order_relaxed);
}

u64 ProfileLog::spill_wait_spins() {
  return g_spill_wait_spins.load(std::memory_order_relaxed);
}

bool ProfileLog::init(void* buffer, usize size, u64 pid, u64 initial_flags,
                      u32 shard_count, u32 counter_replicas) {
  if (!buffer) return false;
  if (shard_count == 0 || shard_count > kMaxLogShards) return false;
  if (counter_replicas > kMaxCounterReplicas) return false;
  // Spill-drain supersedes ring wrap: the two reclaim policies cannot
  // coexist.
  if ((initial_flags & log_flags::kSpillDrain) &&
      (initial_flags & log_flags::kRingBuffer)) {
    return false;
  }
  usize overhead =
      sizeof(LogHeader) + static_cast<usize>(shard_count) * sizeof(LogShard);
  if (size < overhead + sizeof(LogEntry) * shard_count) return false;
  // Fault point: the shard directory failing to come up (e.g. the shm grant
  // shrank under us between sizing and formatting). Modeled as init failure
  // so callers exercise their no-log degradation path.
  if (fault::fires(fault_points::kLogShardAllocFail)) return false;

  // The trailing replica block (plus its alignment pad) comes off the entry
  // budget; shrink until the aligned layout fits (the pad depends on the
  // entry count, so the closed form is not exact).
  usize replica_bytes =
      counter_replicas ? sizeof(CounterReplicaDirectory) +
                             static_cast<usize>(counter_replicas) *
                                 sizeof(CounterReplicaSlot)
                       : 0;
  if (counter_replicas && size < overhead + replica_bytes + 64) return false;
  u64 total = (size - overhead - replica_bytes) / sizeof(LogEntry);
  while (total > 0 &&
         bytes_for_replicated(total, shard_count, counter_replicas) > size) {
    --total;
  }
  total -= total % shard_count;  // equal segments
  if (total < shard_count) return false;

  auto* h = new (buffer) LogHeader();
  h->magic = kLogMagic;
  h->version = kLogVersionSharded;
  h->shard_count = shard_count;
  h->shm_base = reinterpret_cast<u64>(buffer);
  h->pid = pid;
  h->counter_replicas = counter_replicas;
  h->max_entries = total;
  h->counter.store(0, std::memory_order_relaxed);
  h->profiler_anchor = reinterpret_cast<u64>(&kLogMagic);
  h->flags.store(initial_flags, std::memory_order_release);
  header_ = h;
  u8* base = static_cast<u8*>(buffer);
  shards_ = reinterpret_cast<LogShard*>(base + sizeof(LogHeader));
  u64 per_shard = total / shard_count;
  for (u32 s = 0; s < shard_count; ++s) {
    auto* sh = new (&shards_[s]) LogShard();
    sh->entry_offset = static_cast<u64>(s) * per_shard;
    sh->capacity = per_shard;
  }
  entries_ = reinterpret_cast<LogEntry*>(base + overhead);
  if (counter_replicas) {
    usize block_off =
        (overhead + static_cast<usize>(total) * sizeof(LogEntry) + 63) &
        ~usize{63};
    replica_dir_ = new (base + block_off) CounterReplicaDirectory();
    replica_dir_->replica_count = counter_replicas;
    replica_slots_ = reinterpret_cast<CounterReplicaSlot*>(
        base + block_off + sizeof(CounterReplicaDirectory));
    for (u32 r = 0; r < counter_replicas; ++r) {
      new (&replica_slots_[r]) CounterReplicaSlot();
    }
  } else {
    replica_dir_ = nullptr;
    replica_slots_ = nullptr;
  }
  return true;
}

bool ProfileLog::adopt(void* buffer, usize size) {
  if (!buffer || size < sizeof(LogHeader)) return false;
  auto* h = reinterpret_cast<LogHeader*>(buffer);
  if (h->magic != kLogMagic || h->version != kLogVersionSharded) return false;
  if (h->shard_count == 0 || h->shard_count > kMaxLogShards) return false;
  usize overhead = sizeof(LogHeader) +
                   static_cast<usize>(h->shard_count) * sizeof(LogShard);
  if (size < overhead) return false;
  // Divide rather than multiply: a corrupt max_entries (from a hostile or
  // truncated region) must not overflow u64 and sneak past the size check.
  if (h->max_entries == 0 ||
      h->max_entries > (size - overhead) / sizeof(LogEntry)) {
    return false;
  }
  u8* base = static_cast<u8*>(buffer);
  auto* dir = reinterpret_cast<LogShard*>(base + sizeof(LogHeader));
  for (u32 s = 0; s < h->shard_count; ++s) {
    // Subtraction-form bounds check: offset + capacity computed directly
    // could wrap u64 and pass.
    if (dir[s].entry_offset > h->max_entries ||
        dir[s].capacity > h->max_entries - dir[s].entry_offset) {
      return false;
    }
  }
  shards_ = dir;
  header_ = h;
  entries_ = reinterpret_cast<LogEntry*>(base + overhead);
  // Replica block: live shm regions carry it after the entry array; loaded
  // dumps (compact or raw) never do, and a stale/hostile counter_replicas
  // pointing past the region degrades to "no replicas" rather than a reject
  // — every pre-replica consumer of the log proper still works.
  replica_dir_ = nullptr;
  replica_slots_ = nullptr;
  if (h->counter_replicas > 0 &&
      h->counter_replicas <= kMaxCounterReplicas) {
    usize block_off =
        (overhead + static_cast<usize>(h->max_entries) * sizeof(LogEntry) +
         63) &
        ~usize{63};
    usize block_bytes = sizeof(CounterReplicaDirectory) +
                        static_cast<usize>(h->counter_replicas) *
                            sizeof(CounterReplicaSlot);
    if (block_off <= size && block_bytes <= size - block_off) {
      auto* dir = reinterpret_cast<CounterReplicaDirectory*>(base + block_off);
      if (dir->replica_count == h->counter_replicas) {
        replica_dir_ = dir;
        replica_slots_ = reinterpret_cast<CounterReplicaSlot*>(
            base + block_off + sizeof(CounterReplicaDirectory));
      }
    }
  }
  return true;
}

bool ProfileLog::append(EventKind kind, u64 addr, u64 tid, u64 counter) {
  LogEntry e;
  e.kind_and_counter = LogEntry::pack(kind, counter);
  e.addr = addr;
  e.tid = tid;
  LogShard& sh = shards_[tid % header_->shard_count];
  u64 f = header_->flags.load(std::memory_order_relaxed);
  if (f & log_flags::kSpillDrain) return spill_store(sh, &e, 1);
  // Reserve first, then write: each slot is written exactly once even under
  // contention. Unfair access to the tail is harmless because only
  // per-thread ordering matters to the analyzer (§II-B).
  u64 slot = sh.tail.fetch_add(1, std::memory_order_relaxed);
  if (slot >= sh.capacity) {
    if (f & log_flags::kRingBuffer) {
      slot %= sh.capacity;  // overwrite the oldest window
    } else {
      // Counted in the shared shard record, not a process-local member, so
      // a reader attached from another process sees the app's drops.
      sh.dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // Fault point: the writer dying between reserving the slot and filling it
  // in — the exact tear the analyzer's tombstone handling exists for. The
  // site acts out the death itself (SIGKILL, no cleanup) so the torn slot
  // is produced by the real production code path.
  if (fault::fires(fault_points::kLogAppendDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  entries_[sh.entry_offset + slot] = e;
  return true;
}

bool ProfileLog::append_batch(const LogEntry* batch, u32 n, u64 tid) {
  if (n == 0) return true;
  LogShard& sh = shards_[tid % header_->shard_count];
  u64 f = header_->flags.load(std::memory_order_relaxed);
  if (f & log_flags::kSpillDrain) return spill_store(sh, batch, n);
  // One reservation covers the whole batch: this fetch-and-add is the only
  // shared-memory RMW the hot path pays per kCapacity events.
  u64 first = sh.tail.fetch_add(n, std::memory_order_relaxed);
  // Fault point: the writer dying after reserving the run but before
  // storing any of it — a batched flush can tear up to a whole batch of
  // slots, which the analyzer's tombstone accounting must absorb.
  if (fault::fires(fault_points::kLogFlushDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  bool ring = (f & log_flags::kRingBuffer) != 0;
  LogEntry* seg = entries_ + sh.entry_offset;
  u64 cap = sh.capacity;
  if (!fault::Registry::instance().any_armed()) {
    if (first + n <= cap) {
      std::memcpy(seg + first, batch,
                  static_cast<usize>(n) * sizeof(LogEntry));
      return true;
    }
    if (ring && n <= cap) {
      // A wrapped run still publishes as at most two memcpy spans. Gating
      // the fast path on `first + n <= capacity` alone sent every flush
      // after the first wrap down the per-entry modulo loop for the rest
      // of the run — the tail only ever grows.
      u64 start = first % cap;
      u64 head = cap - start < n ? cap - start : n;
      std::memcpy(seg + start, batch,
                  static_cast<usize>(head) * sizeof(LogEntry));
      if (head < n) {
        std::memcpy(seg, batch + head,
                    static_cast<usize>(n - head) * sizeof(LogEntry));
      }
      return true;
    }
    if (!ring) {
      // Bounded log out of space: store what fits, count the rest.
      u64 fit = first < cap ? cap - first : 0;
      if (fit > 0) {
        std::memcpy(seg + first, batch,
                    static_cast<usize>(fit) * sizeof(LogEntry));
      }
      sh.dropped.fetch_add(n - fit, std::memory_order_relaxed);
      return false;
    }
    // Ring run longer than the whole segment: fall through to the
    // per-entry loop (degenerate; only the newest window survives anyway).
  }
  bool any_stored = false;
  for (u32 i = 0; i < n; ++i) {
    // Per-store fault point, same name and semantics as the unbatched path:
    // a batch dying at its Nth store leaves the already-reserved remainder
    // of the run as tombstones.
    if (fault::fires(fault_points::kLogAppendDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
    u64 slot = first + i;
    if (slot >= sh.capacity) {
      if (ring) {
        slot %= sh.capacity;
      } else {
        sh.dropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    seg[slot] = batch[i];
    any_stored = true;
  }
  return any_stored && (ring || first + n <= sh.capacity);
}

bool ProfileLog::spill_store(LogShard& sh, const LogEntry* batch, u32 n) {
  u64 cap = sh.capacity;
  if (n > cap) {
    // A run larger than the whole segment can never have space; refuse it
    // outright rather than deadlocking on a wait that cannot succeed.
    sh.dropped.fetch_add(n, std::memory_order_relaxed);
    return false;
  }
  u64 first = sh.tail.fetch_add(n, std::memory_order_relaxed);
  // Fault point: same tear semantics as the bounded flush path — a writer
  // dying here leaves the whole reserved run as tombstones.
  if (fault::fires(fault_points::kLogFlushDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  // Space wait: the run may only be stored over slots the drainer has
  // already consumed and zeroed, i.e. once first + n <= drained + capacity.
  // If the drainer is dead or hopelessly behind, the spin budget runs out
  // and the writer force-advances the drain cursor itself: the oldest
  // undrained entries are sacrificed (keep-newest policy) and every
  // discarded slot is accounted as dropped. CAS so a racing force-advance
  // or a revived drainer is never rolled back.
  u64 budget = g_spill_wait_spins.load(std::memory_order_relaxed);
  u64 d = sh.drained.load(std::memory_order_acquire);
  while (first + n > d + cap) {
    if (budget == 0) {
      u64 target = first + n - cap;
      if (sh.drained.compare_exchange_strong(d, target,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        sh.dropped.fetch_add(target - d, std::memory_order_relaxed);
        d = target;
      }
      budget = g_spill_wait_spins.load(std::memory_order_relaxed);
      continue;
    }
    --budget;
    d = sh.drained.load(std::memory_order_acquire);
  }
  // Store modulo capacity: at most two spans, same shape as the ring path.
  LogEntry* seg = entries_ + sh.entry_offset;
  u64 start = first % cap;
  u64 head = cap - start < n ? cap - start : n;
  std::memcpy(seg + start, batch, static_cast<usize>(head) * sizeof(LogEntry));
  if (head < n) {
    std::memcpy(seg, batch + head,
                static_cast<usize>(n - head) * sizeof(LogEntry));
  }
  // In-order publish: wait for every earlier reservation to commit, then
  // release this run. Commit order == reservation order is what makes
  // [drained, published) a contiguous fully-stored window the drainer can
  // consume while the application keeps writing.
  while (sh.published.load(std::memory_order_acquire) != first) {
  }
  // Fault point: dying between store and publish — the run (and everything
  // reserved after it) stays unpublished and surfaces as tombstones in the
  // final residue, never as a torn chunk.
  if (fault::fires(fault_points::kLogAppendDie))
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  sh.published.store(first + n, std::memory_order_release);
  return true;
}

LogWindow ProfileLog::window(u32 s) const {
  LogWindow w;
  if (!header_ || s >= header_->shard_count) return w;
  const LogShard& sh = shards_[s];
  u64 cap = sh.capacity;
  if (cap == 0) return w;
  u64 f = header_->flags.load(std::memory_order_relaxed);
  u64 lo = 0;
  u64 hi = sh.tail.load(std::memory_order_acquire);
  if (f & log_flags::kSpillDrain) {
    // Residue: everything the drainer has not consumed. Spilled entries
    // live in chunk files.
    lo = sh.drained.load(std::memory_order_acquire);
    hi = std::min(hi, lo + cap);
  } else if (f & log_flags::kRingBuffer) {
    if (hi > cap) lo = hi - cap;
  } else {
    hi = std::min(hi, cap);
  }
  w.begin = lo;
  w.end = std::max(hi, lo);
  const LogEntry* seg = entries_ + sh.entry_offset;
  u64 len = w.size();
  u64 start = lo % cap;
  u64 head = std::min(cap - start, len);
  w.spans[0] = {seg + start, static_cast<usize>(head)};
  w.spans[1] = {seg, static_cast<usize>(len - head)};
  return w;
}

void ProfileLog::snapshot_ordered(std::vector<LogEntry>* out) const {
  out->clear();
  out->reserve(size());
  for (u32 s = 0; s < shard_count(); ++s) window(s).append_to(out);
}

bool ProfileLog::write_compact(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  bool ok = true;
  auto put = [&](const void* data, usize n) {
    if (ok && n != 0) ok = std::fwrite(data, 1, n, f) == n;
  };
  if (header_) {
    // Field by field, the atomic words with atomic loads: a live software
    // counter thread keeps storing `counter` while the dump copies it.
    LogHeader header_copy;
    header_copy.magic = header_->magic;
    header_copy.flags.store(
        flags() & ~(log_flags::kRingBuffer | log_flags::kSpillDrain),
        std::memory_order_relaxed);
    header_copy.version = header_->version;
    header_copy.shard_count = header_->shard_count;
    header_copy.shm_base = header_->shm_base;
    header_copy.pid = header_->pid;
    header_copy.tail.store(header_->tail.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    header_copy.profiler_anchor = header_->profiler_anchor;
    header_copy.counter.store(header_->counter.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    header_copy.counter_mode = header_->counter_mode;
    // The replica block is shm-only: compact dumps never carry it, so the
    // header field is zeroed for byte-deterministic output (and so loaders
    // don't go looking for a block that is not there).
    header_copy.counter_replicas = 0;
    header_copy.ns_per_tick = header_->ns_per_tick;
    header_copy.dropped.store(header_->dropped.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
    std::memcpy(header_copy.reserved1, header_->reserved1,
                sizeof(header_copy.reserved1));
    // Pack the written windows back-to-back and rewrite the directory so
    // offsets are cumulative, capacity == tail == the written count, and
    // no wrap/gap logic survives into the file.
    u32 nshards = header_->shard_count;
    std::vector<LogWindow> windows(nshards);
    std::vector<LogShard> dir(nshards);
    u64 total = 0;
    for (u32 s = 0; s < nshards; ++s) {
      windows[s] = window(s);
      u64 n = windows[s].size();
      dir[s].entry_offset = total;
      dir[s].capacity = n;
      dir[s].tail.store(n, std::memory_order_relaxed);
      dir[s].dropped.store(shards_[s].dropped.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
      // On disk `drained` carries the window's absolute start cursor (0 for
      // logs that never drained/wrapped, so plain dumps stay
      // byte-identical). The spill loader uses it to stitch chunk files and
      // the final residue into one stream and to skip overlap after a
      // drainer crash/resume.
      dir[s].drained.store(windows[s].begin, std::memory_order_relaxed);
      total += n;
    }
    header_copy.max_entries = total;
    put(&header_copy, sizeof(LogHeader));
    put(dir.data(), static_cast<usize>(nshards) * sizeof(LogShard));
    for (const LogWindow& w : windows) {
      for (std::span<const LogEntry> sp : w.spans) {
        put(sp.data(), sp.size_bytes());
      }
    }
  }
  bool closed = std::fclose(f) == 0;
  return ok && closed;
}

u64 ProfileLog::size() const {
  u64 n = 0;
  for (u32 s = 0; s < shard_count(); ++s) n += window(s).size();
  return n;
}

u64 ProfileLog::attempted() const {
  u64 n = 0;
  for (u32 s = 0; s < shard_count(); ++s) {
    n += shards_[s].tail.load(std::memory_order_acquire);
  }
  return n;
}

u64 ProfileLog::dropped() const {
  u64 n = 0;
  for (u32 s = 0; s < shard_count(); ++s) {
    n += shards_[s].dropped.load(std::memory_order_relaxed);
  }
  return n;
}

void ProfileLog::set_active(bool on) {
  if (on)
    header_->flags.fetch_or(log_flags::kActive, std::memory_order_acq_rel);
  else
    header_->flags.fetch_and(~log_flags::kActive, std::memory_order_acq_rel);
}

void ProfileLog::set_flags(u64 set_mask, u64 clear_mask) {
  u64 old = header_->flags.load(std::memory_order_relaxed);
  while (!header_->flags.compare_exchange_weak(old, (old & ~clear_mask) | set_mask,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
  }
}

u64 ProfileLog::shard_torn_tail(u32 s, u64 window_entries) const {
  // Walk the newest entries of the written window in cursor order: once a
  // ring tail passes capacity, the newest entry sits at (tail - 1) % cap,
  // not at the top of the segment.
  LogWindow w = window(s);
  u64 n = w.size();
  u64 torn = 0;
  for (u64 i = n > window_entries ? n - window_entries : 0; i < n; ++i) {
    if (is_tombstone(w[i])) ++torn;
  }
  return torn;
}

u64 ProfileLog::count_torn_tail(u64 window_entries) const {
  u64 torn = 0;
  for (u32 s = 0; s < shard_count(); ++s) {
    torn += shard_torn_tail(s, window_entries);
  }
  return torn;
}

bool LogBatch::record_and_publish(ProfileLog& log, EventKind kind, u64 addr,
                                  u64 tid, u64 counter) {
  bool ok = true;
  if (count_ > 0 && tid_ != tid) ok = flush(log);
  push(kind, addr, tid, counter);
  // Every event reaches the log through a flush, so a full shard counts
  // each one in its tail and its dropped counter, exactly like a per-event
  // append.
  if (count_ == kCapacity) ok = flush(log) && ok;
  return ok;
}

bool LogBatch::flush(ProfileLog& log) {
  if (count_ == 0) return true;
  u32 n = count_;
  count_ = 0;
  published_ += n;
  return log.append_batch(pending_, n, tid_);
}

}  // namespace teeperf
