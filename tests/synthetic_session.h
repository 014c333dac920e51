// Synthetic sessions for tests that need one larger than any shm window:
// a spill session written straight to chunk files (drain/chunk_format.h),
// or a wrapped ring log dumped through ProfileLog::write_compact.
#pragma once

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fileutil.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"

namespace teeperf {

// One synthetic thread's entries, in order: 3-deep nested calls over a
// 16-method rotation (addresses 0x100 * (level + 1) + method), one counter
// tick per entry.
class SyntheticThread {
 public:
  explicit SyntheticThread(u64 tid) : tid_(tid) {}

  LogEntry next() {
    u64 level = phase_ < 3 ? phase_ : 5 - phase_;
    LogEntry e{};
    e.kind_and_counter = LogEntry::pack(
        phase_ < 3 ? EventKind::kCall : EventKind::kReturn, counter_++);
    e.addr = 0x100 * (level + 1) + cycle_;
    e.tid = tid_;
    if (++phase_ == 6) {
      phase_ = 0;
      cycle_ = (cycle_ + 1) % 16;
    }
    return e;
  }

 private:
  u64 tid_;
  u64 counter_ = 1;
  u64 phase_ = 0;
  u64 cycle_ = 0;
};

// Synthesizes a spill session far larger than any shm window directly as
// chunk files: per shard one SyntheticThread, counters and cursors
// continuous across chunks.
inline void write_synthetic_session(const std::string& prefix, u32 chunks,
                             u64 per_shard) {
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  constexpr u32 kSynthShards = 2;
  SyntheticThread threads[kSynthShards] = {SyntheticThread(0), SyntheticThread(1)};
  for (u32 seq = 0; seq < chunks; ++seq) {
    std::vector<drain::ShardWindow> windows(kSynthShards);
    for (u32 s = 0; s < kSynthShards; ++s) {
      windows[s].start = static_cast<u64>(seq) * per_shard;
      windows[s].entries.reserve(per_shard);
      for (u64 i = 0; i < per_shard; ++i) windows[s].entries.push_back(threads[s].next());
    }
    ASSERT_TRUE(write_file(drain::chunk_path(prefix, seq),
                           drain::serialize_chunk(session, windows, seq)));
  }
}

// Writes "<prefix>.log": a 2-shard ring log of `capacity` entries, one
// SyntheticThread per shard, appended until each shard has wrapped by half
// its segment, then dumped through write_compact, so the dump holds
// `capacity` entries whose windows start mid-stream.
inline void write_ring_dump(const std::string& prefix, u64 capacity) {
  constexpr u32 kRingShards = 2;
  std::vector<u8> buf(ProfileLog::bytes_for(capacity, kRingShards));
  ProfileLog log;
  ASSERT_TRUE(log.init(buf.data(), buf.size(), /*pid=*/1,
                       log_flags::kActive | log_flags::kMultithread |
                           log_flags::kRingBuffer,
                       kRingShards));
  for (u32 s = 0; s < kRingShards; ++s) {
    SyntheticThread thread(s);
    u64 per_shard = log.shard(s)->capacity;
    for (u64 i = 0; i < per_shard + per_shard / 2; ++i) {
      LogEntry e = thread.next();
      log.append(e.kind(), e.addr, e.tid, e.counter());
    }
  }
  ASSERT_TRUE(log.write_compact(prefix + ".log"));
}

}  // namespace teeperf
