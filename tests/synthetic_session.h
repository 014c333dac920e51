// A synthetic spill session for tests that need one larger than any shm
// window, written straight to chunk files (drain/chunk_format.h).
#pragma once

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fileutil.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"

namespace teeperf {

// Synthesizes a spill session far larger than any shm window directly as
// chunk files: per shard one thread running 3-deep nested calls over a
// 16-method rotation, counters and cursors continuous across chunks.
inline void write_synthetic_session(const std::string& prefix, u32 chunks,
                             u64 per_shard) {
  LogHeader session{};
  session.magic = kLogMagic;
  session.version = kLogVersionSharded;
  constexpr u32 kSynthShards = 2;
  u64 counter[kSynthShards] = {1, 1};
  u64 phase[kSynthShards] = {0, 0};
  u64 cycle[kSynthShards] = {0, 0};
  for (u32 seq = 0; seq < chunks; ++seq) {
    std::vector<drain::ShardWindow> windows(kSynthShards);
    for (u32 s = 0; s < kSynthShards; ++s) {
      windows[s].start = static_cast<u64>(seq) * per_shard;
      windows[s].entries.reserve(per_shard);
      for (u64 i = 0; i < per_shard; ++i) {
        u64 level = phase[s] < 3 ? phase[s] : 5 - phase[s];
        u64 addr = 0x100 * (level + 1) + cycle[s];
        LogEntry e{};
        e.kind_and_counter = LogEntry::pack(
            phase[s] < 3 ? EventKind::kCall : EventKind::kReturn, counter[s]++);
        e.addr = addr;
        e.tid = s;
        windows[s].entries.push_back(e);
        if (++phase[s] == 6) {
          phase[s] = 0;
          cycle[s] = (cycle[s] + 1) % 16;
        }
      }
    }
    ASSERT_TRUE(write_file(drain::chunk_path(prefix, seq),
                           drain::serialize_chunk(session, windows, seq)));
  }
}

}  // namespace teeperf
