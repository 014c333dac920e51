// Structured event journal: a fixed-size ring of 64-byte binary records in
// the shared-memory obs region. Long-running sessions keep the newest
// window (same policy as the log's ring mode); the monotonically increasing
// sequence number tells readers how many events were lost to wrap.
#pragma once

#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/layout.h"

namespace teeperf::obs {

enum class EventType : u32 {
  kAttach = 1,         // session attached (arg0 = pid)
  kDetach = 2,         // session detached (arg0 = entries recorded)
  kActivate = 3,       // measurement toggled on
  kDeactivate = 4,     // measurement toggled off
  kCounterStall = 5,   // counter word stopped advancing (arg0 = stuck value,
                       // arg1 = stalled-for ns)
  kCounterDrift = 6,   // ns/tick deviated from the calibration (arg0 =
                       // window ps/tick, arg1 = calibrated ps/tick)
  kCounterRecover = 7, // counter advancing again after a stall
  kEpcPressure = 8,    // EPC evictions crossed a power of two (arg0 = total
                       // evictions, arg1 = resident limit)
  kRingWrap = 9,       // log ring wrapped (arg0 = wrap count)
  kLogSaturated = 10,  // non-ring log is full and dropping (arg0 = attempted)
  kTornTail = 11,      // reserved-but-unwritten entries found at dump
                       // (arg0 = torn entry count)
  kSamplerStart = 12,  // perfsim sampler armed (arg0 = frequency hz)
  kSamplerStop = 13,   // perfsim sampler stopped (arg0 = samples, arg1 = dropped)
  kDrainStall = 14,    // spill drainer stopped consuming while writers lag
                       // (arg0 = lag entries, arg1 = entries drained so far)
  kSessionGc = 15,     // stale-session GC reclaimed orphans (arg0 = stale
                       // descriptors removed, arg1 = shm segments unlinked)
  kCounterBackjump = 16,  // counter word observed moving backwards (arg0 =
                          // new value, arg1 = previous value). Distinct from
                          // a stall: the timeline regressed, so the window is
                          // excluded from calibration instead of averaged in.
  kCounterFailover = 17,  // replicated counter elected a new primary
                          // (arg0 = old replica index, arg1 = new index)
};

const char* event_type_name(EventType type);

// A decoded journal record (plain values, detached from the shm).
struct Event {
  u64 seq = 0;   // 1-based global sequence number
  u64 t_ns = 0;  // CLOCK_MONOTONIC at record time
  EventType type = EventType::kAttach;
  u32 tid = 0;
  u64 arg0 = 0;
  u64 arg1 = 0;
  char detail[24] = {};
};

class EventJournal {
 public:
  EventJournal() = default;
  explicit EventJournal(const ObsLayout& layout) : layout_(layout) {}

  bool valid() const { return layout_.valid(); }

  // Lock-free append: reserves a ring slot with fetch-and-add on the global
  // sequence, fills the record, and publishes the sequence number last
  // (commit marker — see EventRecord). `detail` is truncated to 23 chars.
  void record(EventType type, u64 arg0 = 0, u64 arg1 = 0,
              std::string_view detail = {}, u32 tid = 0);

  // Total events ever recorded (>= what the ring currently holds).
  u64 total() const;

  // Copies committed records oldest→newest, skipping slots that are empty
  // or torn mid-write. Capped at the ring capacity.
  std::vector<Event> snapshot() const;

  u32 capacity() const {
    return layout_.valid() ? layout_.header->journal_capacity : 0;
  }
  // Region creation time; event timestamps are usually shown relative to it.
  u64 epoch_ns() const { return layout_.valid() ? layout_.header->created_ns : 0; }

 private:
  ObsLayout layout_;
};

}  // namespace teeperf::obs
