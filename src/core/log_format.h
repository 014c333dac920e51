// The TEE-Perf log format (paper §II-B, Figure 2).
//
// The log lives in shared memory mapped between the profiled application
// (inside the TEE) and the recorder wrapper (outside): a fixed-size header,
// a shard directory of N cache-line-padded LogShard records, then the entry
// array split into N contiguous per-shard segments (DESIGN.md "Log format
// v2"). Appending is lock-free: a writer reserves slots with a
// fetch-and-add on its shard's tail and then fills them in. A thread's
// events go to shard `tid % N`, so with enough shards each thread owns its
// tail and the hot path never bounces a cache line between cores. Writers
// normally publish through a small thread-local batch (LogBatch): one tail
// fetch-and-add per flush instead of per event.
//
// One shard is the paper's Figure 2 exactly: one append-only array behind
// one shared fetch-and-add tail, with the same drop arithmetic. The older
// v1 layout (no directory, the header's own tail) is no longer written; it
// survives only as a read-only dump format that the analyzer's parse_dump
// lifts into a one-window view.
//
// Entry order across threads is not globally consistent, but per-thread
// order is — which is all the analyzer needs (§II-C, multithreading
// support). A thread's entries additionally all live in one shard, which is
// what lets the analyzer reconstruct shards in parallel.
#pragma once

#include <atomic>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace teeperf {

// Header flags (Figure 2a). The flags word is atomically readable and
// writable so measurement can be (de)activated while the application runs
// without introducing a critical section (§II-B, stage #1).
namespace log_flags {
inline constexpr u64 kActive = 1ull << 0;         // measurement currently on
inline constexpr u64 kRecordCalls = 1ull << 1;    // record function entries
inline constexpr u64 kRecordReturns = 1ull << 2;  // record function exits
inline constexpr u64 kMultithread = 1ull << 16;   // entries carry thread ids
inline constexpr u64 kRingBuffer = 1ull << 17;    // wrap instead of dropping
inline constexpr u64 kSpillDrain = 1ull << 18;    // a host-side drainer reclaims
                                                  // consumed windows (src/drain);
                                                  // excludes kRingBuffer
}  // namespace log_flags

inline constexpr u32 kLogVersion = 1;         // read-only: old single-tail dumps
inline constexpr u32 kLogVersionSharded = 2;  // per-thread shard segments
inline constexpr u64 kLogMagic = 0x5445455045524631ull;  // "TEEPERF1"

// Upper bound a loader will believe for a v2 shard directory. Far above any
// real configuration (the recorder caps at 64); exists so a hostile header
// cannot make the loader allocate a directory-sized world.
inline constexpr u32 kMaxLogShards = 1024;

enum class EventKind : u64 { kCall = 0, kReturn = 1 };

// Log entry (Figure 2b): the top bit of the first word distinguishes call
// from return; the remaining 63 bits hold the counter value at the event.
// 32 bytes so two entries share a cache line and the array stays aligned.
struct LogEntry {
  static constexpr u64 kKindBit = 1ull << 63;

  u64 kind_and_counter = 0;
  u64 addr = 0;  // call/return target: function address or registered id
  u64 tid = 0;   // profiler-assigned thread id (dense, starts at 0)
  u64 reserved = 0;

  static u64 pack(EventKind kind, u64 counter) {
    return (kind == EventKind::kReturn ? kKindBit : 0) | (counter & ~kKindBit);
  }
  EventKind kind() const {
    return (kind_and_counter & kKindBit) ? EventKind::kReturn : EventKind::kCall;
  }
  u64 counter() const { return kind_and_counter & ~kKindBit; }
};
static_assert(sizeof(LogEntry) == 32);

// Log header (Figure 2a). `flags` and `counter` are the only fields mutated
// after initialisation; `version` and the rest are written once and never
// changed (§II-B: the version "is static after it is written once").
// `shard_count` is nonzero and a LogShard directory follows the header. The
// global `tail` and `dropped` words are never written (each shard has its
// own); they keep the shm layout stable, and `tail` is how old v1 dumps
// record their length.
struct LogHeader {
  u64 magic = 0;
  std::atomic<u64> flags{0};
  u32 version = 0;
  u32 shard_count = 0;  // directory size; 0 only in old v1 dumps
  u64 shm_base = 0;    // address the shared memory is mapped at in the app
  u64 pid = 0;         // process id of the profiled application
  u64 max_entries = 0; // immutable capacity; writers past this drop entries
  std::atomic<u64> tail{0};       // v1 dumps: entry count; unused otherwise
  u64 profiler_anchor = 0;        // address of a well-known function, used to
                                  // compute the load offset of relocatable code
  std::atomic<u64> counter{0};    // the software counter lives here so the
                                  // counter thread touches one cache line
  u32 counter_mode = 0;           // CounterMode the entries were taken with
  u32 counter_replicas = 0;       // replicated trusted time (DESIGN.md §13):
                                  // number of CounterReplicaSlot words in the
                                  // trailing replica block; 0 = single counter
                                  // (the layout-compatible pre-replica value)
  double ns_per_tick = 0.0;       // measured at dump time; lets the analyzer
                                  // report human time (relative profiles do
                                  // not depend on its accuracy)
  std::atomic<u64> dropped{0};    // unused: drops are counted per shard
  u8 reserved1[128 - 12 * 8] = {};  // pad so entries start cache-aligned;
                                    // zeroed so serialized headers are
                                    // byte-deterministic (corpus --gen)
};
static_assert(sizeof(LogHeader) == 128);

// One shard directory record: a contiguous segment of the entry array
// owned by the threads with `tid % shard_count == index`. Cache-line sized
// and aligned so two shards' tails never share a line — the whole point.
struct alignas(64) LogShard {
  u64 entry_offset = 0;            // segment start, as an entry-array index
  u64 capacity = 0;                // segment length in entries
  std::atomic<u64> tail{0};        // slots reserved (may run past capacity)
  std::atomic<u64> dropped{0};     // appends refused when full (non-ring)
  // Spill-drain cursor pair (kSpillDrain, DESIGN.md §10). Absolute entry
  // counts, like tail; the segment is addressed modulo capacity and the
  // live window is [drained, tail):
  //   published — contiguous prefix fully stored: writers commit their runs
  //               in reservation order, so [drained, published) is safe for
  //               the drainer to consume while the application runs.
  //   drained   — entries the host-side drainer has consumed (spilled to a
  //               chunk file and zeroed); writers reuse the space, which is
  //               what makes session length unbounded.
  // In serialized compact dumps/chunks `drained` is repurposed to carry the
  // window's absolute start cursor, so the multi-chunk loader can stitch
  // and deduplicate; `published` is kept 0 on disk.
  std::atomic<u64> published{0};
  std::atomic<u64> drained{0};
  u8 reserved[64 - 6 * 8] = {};  // zeroed: keeps serialized directories
                                 // byte-deterministic
};
static_assert(sizeof(LogShard) == 64);

// Replicated trusted time (DESIGN.md §13). When LogHeader::counter_replicas
// is nonzero, a 64-byte-aligned block follows the entry array:
//
//   [ CounterReplicaDirectory ][ CounterReplicaSlot × counter_replicas ]
//
// Each replica thread increments only its own slot word, so replicas never
// share a cache line; the elected primary additionally mirrors its value
// into LogHeader::counter, which keeps the probe path (one relaxed load of
// the header word) and every pre-replica reader unchanged. The block is
// shm-only: compact dumps zero `counter_replicas` and never serialize it,
// and adopt() of a region too small to hold it degrades to 0 replicas.
inline constexpr u32 kMaxCounterReplicas = 8;

struct alignas(64) CounterReplicaDirectory {
  std::atomic<u32> primary{0};     // elected replica index; written by the
                                   // detector, read by every replica thread
  u32 replica_count = 0;           // immutable after init
  std::atomic<u64> failovers{0};   // elections after the initial one
  std::atomic<u64> backjumps{0};   // replica words observed moving backwards
  u8 reserved[64 - 3 * 8] = {};    // zeroed for deterministic snapshots
};
static_assert(sizeof(CounterReplicaDirectory) == 64);

struct alignas(64) CounterReplicaSlot {
  std::atomic<u64> value{0};     // this replica's monotonic tick word
  u8 reserved[64 - 8] = {};      // pad: one replica per cache line
};
static_assert(sizeof(CounterReplicaSlot) == 64);

// One shard's written window (ProfileLog::window): the absolute cursors
// [begin, end) and the at most two segment spans holding those entries,
// oldest first. A bounded shard holds [0, min(tail, capacity)); a wrapped
// ring holds the newest capacity-sized window [tail - capacity, tail); a
// spill shard holds the undrained residue [drained, min(tail, drained +
// capacity)). Absolute cursor a lives at segment slot a % capacity, so only
// a window that crosses the segment end needs the second span. The spans
// view the live log: a writer still running can change what they hold.
// teeperf-lint: allow(r3): process-local view over the region, not shm-resident
struct LogWindow {
  u64 begin = 0;
  u64 end = 0;
  std::span<const LogEntry> spans[2];

  u64 size() const { return end - begin; }
  // The i-th entry of the window, oldest first (i < size()).
  const LogEntry& operator[](u64 i) const {
    u64 head = spans[0].size();
    return i < head ? spans[0][i] : spans[1][i - head];
  }
  // Appends entries [from, size()) to `out`, oldest first.
  void append_to(std::vector<LogEntry>* out, u64 from = 0) const {
    for (std::span<const LogEntry> sp : spans) {
      u64 skip = from < sp.size() ? from : sp.size();
      from -= skip;
      out->insert(out->end(), sp.begin() + static_cast<isize>(skip), sp.end());
    }
  }
};

// A view over a header + shard directory + entry array placed in a caller-
// provided region. Does not own the memory (the shared-memory region or
// file buffer does).
class ProfileLog {
 public:
  ProfileLog() = default;

  // Formats `buffer` (of `size` bytes) as an empty log with `shard_count`
  // (1..kMaxLogShards) equally sized shard segments; capacity rounds down
  // to a multiple of shard_count. Returns false for 0 shards or if the
  // buffer cannot hold the header plus directory plus at least one entry
  // per shard. `counter_replicas` > 0 additionally formats the trailing
  // replica block (the buffer must be sized with bytes_for_replicated).
  bool init(void* buffer, usize size, u64 pid, u64 initial_flags,
            u32 shard_count = 1, u32 counter_replicas = 0);

  // Adopts an already-formatted log (the analyzer side / reopened shm).
  // Returns false if the magic or version does not match, sizes disagree,
  // or the shard directory points outside the region.
  bool adopt(void* buffer, usize size);

  // Lock-free append (§II-B stage #2): reserves one slot via fetch-and-add
  // on the tid's shard tail, then writes the entry. Returns false (and
  // counts a drop) when full — unless kRingBuffer is set, in which case the
  // slot wraps and the oldest entry is overwritten (long-running sessions
  // keep the newest window).
  bool append(EventKind kind, u64 addr, u64 tid, u64 counter);

  // Batched publication: reserves `n` slots in the tid's shard with a
  // single fetch-and-add, then stores all entries (memcpy when the run does
  // not wrap). All entries must carry the same tid. Returns false if any
  // entry dropped.
  bool append_batch(const LogEntry* batch, u32 n, u64 tid);

  // Shard `s`'s written window, oldest first (LogWindow). The one place the
  // bounded, ring and spill windows are computed; every reader of written
  // entries goes through it. Empty for an invalid log or shard index.
  LogWindow window(u32 s) const;

  // Copies every shard's window into `out` in directory order. Cross-shard
  // order is arbitrary, but each thread's entries land in one shard in
  // program order — the analyzer's only ordering requirement.
  void snapshot_ordered(std::vector<LogEntry>* out) const;

  // Writes header + directory + written entries to `path` as a compact
  // dump: the windows are packed back-to-back in plain order (the ring and
  // spill flags are cleared) and the directory rewritten, so the offline
  // loader needs neither wrap logic nor segment gaps. The entries go from
  // the window spans straight to the file, with no staging copy. An
  // invalid log writes an empty file. False if the file cannot be opened,
  // a write comes up short or closing it fails.
  bool write_compact(const std::string& path) const;

  bool valid() const { return header_ != nullptr; }
  LogHeader* header() { return header_; }
  const LogHeader* header() const { return header_; }

  u32 shard_count() const { return header_ ? header_->shard_count : 0; }
  u32 shard_of(u64 tid) const {
    return static_cast<u32>(tid % header_->shard_count);
  }
  LogShard* shard(u32 s) { return &shards_[s]; }
  const LogShard* shard(u32 s) const { return &shards_[s]; }
  // Shard `s`'s physical segment (capacity slots), for the drainer's
  // in-place copy and reclaim.
  LogEntry* segment(u32 s) { return entries_ + shards_[s].entry_offset; }

  // Number of complete entries: the summed window sizes. Entries past
  // capacity were dropped; entries at the very tail may be torn if the
  // application was killed mid-write, which the analyzer tolerates.
  u64 size() const;
  u64 capacity() const { return header_ ? header_->max_entries : 0; }

  // Appends attempted, including dropped/wrapped ones: the sum of shard
  // tails.
  u64 attempted() const;

  // Appends refused because the log was full: the shard counters, summed.
  // They live in shared memory, so the count is visible to cross-process
  // readers attached to the same region — the watchdog's log.dropped gauge
  // depends on that.
  u64 dropped() const;

  // True when this log runs the spill-drain protocol (kSpillDrain set): a
  // host-side drainer consumes published windows and writers reclaim the
  // space (DESIGN.md §10).
  bool spill() const { return (flags() & log_flags::kSpillDrain) != 0; }

  // Spill mode: how many times a writer re-reads the drain cursor waiting
  // for reclaimed space before it force-advances the cursor and sacrifices
  // the oldest undrained entries (counted as drops). The default is a few
  // hundred ms of spinning — far beyond a healthy drainer's poll interval;
  // tests shrink it to exercise the overflow path deterministically.
  static void set_spill_wait_spins(u64 n);
  static u64 spill_wait_spins();

  // Bytes needed for a log with `max_entries` entries across `shard_count`
  // shards.
  static usize bytes_for(u64 max_entries, u32 shard_count = 1) {
    return sizeof(LogHeader) +
           static_cast<usize>(shard_count) * sizeof(LogShard) +
           static_cast<usize>(max_entries) * sizeof(LogEntry);
  }

  // Bytes including the trailing replica block (64-byte aligned so replica
  // slots stay cache-line isolated regardless of the entry count).
  static usize bytes_for_replicated(u64 max_entries, u32 shard_count,
                                    u32 counter_replicas) {
    usize base = bytes_for(max_entries, shard_count);
    if (counter_replicas == 0) return base;
    usize aligned = (base + 63) & ~usize{63};
    return aligned + sizeof(CounterReplicaDirectory) +
           static_cast<usize>(counter_replicas) * sizeof(CounterReplicaSlot);
  }

  // Replica-block views (null / 0 for single-counter logs and for loaded
  // dumps, whose regions never carry the block).
  u32 counter_replica_count() const {
    return replica_dir_ ? replica_dir_->replica_count : 0;
  }
  CounterReplicaDirectory* replica_directory() { return replica_dir_; }
  const CounterReplicaDirectory* replica_directory() const {
    return replica_dir_;
  }
  CounterReplicaSlot* replica_slot(u32 i) {
    return replica_slots_ ? &replica_slots_[i] : nullptr;
  }
  const CounterReplicaSlot* replica_slot(u32 i) const {
    return replica_slots_ ? &replica_slots_[i] : nullptr;
  }

  // Flag helpers (atomic; usable while the application runs). The readers
  // are inline: the probe tests every event against one flags() load.
  void set_active(bool on);
  bool active() const { return (flags() & log_flags::kActive) != 0; }
  void set_flags(u64 set_mask, u64 clear_mask);
  u64 flags() const {
    return header_ ? header_->flags.load(std::memory_order_acquire) : 0;
  }

  // Counts torn entries at the tail: slots that were reserved (a tail moved
  // past them) but never filled in — all-zero words — because a writer died
  // between the fetch-and-add and the stores. A batched writer can leave up
  // to a whole batch of them. Scans at most the newest `window_entries`
  // entries of each shard's window; run at dump time, after writers
  // stopped.
  u64 count_torn_tail(u64 window_entries = 64) const;

  // The per-shard torn-tail count.
  u64 shard_torn_tail(u32 s, u64 window_entries = 64) const;

 private:
  // Spill-mode store: reserves `n` slots in `sh`, waits for the drainer to
  // reclaim enough space, stores the run modulo capacity (at most two
  // spans), then publishes it in reservation order via `sh.published`.
  bool spill_store(LogShard& sh, const LogEntry* batch, u32 n);

  LogHeader* header_ = nullptr;
  LogShard* shards_ = nullptr;
  LogEntry* entries_ = nullptr;
  CounterReplicaDirectory* replica_dir_ = nullptr;  // null unless the region
  CounterReplicaSlot* replica_slots_ = nullptr;     // carries a replica block
};

// Thread-local batching front-end for the hot path (§II-B stage #2):
// events accumulate in a small local buffer and publish with one shard-tail
// reservation per flush, so the per-probe cost is a handful of L1 stores
// plus 1/kCapacity of an atomic RMW. The batch publishes itself the moment
// it fills; the runtime also flushes on a function exit that returns the
// thread to depth 0, on observing deactivation, and at thread exit
// (DESIGN.md "Batching rules").
class LogBatch {
 public:
  static constexpr u32 kCapacity = 32;

  // Buffers one event and publishes the batch once it is full, so a batch
  // never sits full; a changed tid publishes the old tid's entries first.
  // Returns false if a publish made by this call dropped entries. The
  // common case (room left, same tid) is inline; every publishing branch is
  // out of line.
  bool record(ProfileLog& log, EventKind kind, u64 addr, u64 tid, u64 counter) {
    if (count_ + 1 < kCapacity && (tid_ == tid || count_ == 0)) {
      push(kind, addr, tid, counter);
      return true;
    }
    return record_and_publish(log, kind, addr, tid, counter);
  }

  // Publishes all pending entries to the tid's shard. False if any dropped.
  bool flush(ProfileLog& log);

  u32 pending() const { return count_; }

  // Entries handed to the log by flushes since the last call. The runtime
  // adds them to its per-thread telemetry counter, which therefore moves
  // once per publish rather than once per event.
  u64 take_published() {
    u64 n = published_;
    published_ = 0;
    return n;
  }

  // Discards pending entries without publishing (detached/reset paths).
  void abandon() {
    count_ = 0;
    published_ = 0;
  }

 private:
  void push(EventKind kind, u64 addr, u64 tid, u64 counter) {
    tid_ = tid;
    LogEntry& e = pending_[count_++];
    e.kind_and_counter = LogEntry::pack(kind, counter);
    e.addr = addr;
    e.tid = tid;
    e.reserved = 0;
  }

  bool record_and_publish(ProfileLog& log, EventKind kind, u64 addr, u64 tid,
                          u64 counter);

  LogEntry pending_[kCapacity];
  u32 count_ = 0;
  u64 tid_ = 0;
  u64 published_ = 0;
};

}  // namespace teeperf
