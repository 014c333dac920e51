#include "drain/chunk_format.h"

#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "common/fileutil.h"

namespace teeperf::drain {

namespace {

constexpr usize kHeaderAt = sizeof(ChunkFrame);
constexpr usize kDirAt = kHeaderAt + sizeof(LogHeader);

}  // namespace

char* ChunkBuilder::grow(usize n) {
  // resize() zero-fills only bytes past the largest chunk built so far.
  if (buf_.size() < size_ + n) buf_.resize(size_ + n);
  char* at = buf_.data() + size_;
  size_ += n;
  return at;
}

void ChunkBuilder::set_session(const LogHeader& session) {
  header_.magic = session.magic;
  header_.shm_base = session.shm_base;
  header_.pid = session.pid;
  header_.profiler_anchor = session.profiler_anchor;
  header_.counter_mode = session.counter_mode;
  header_.counter_replicas = session.counter_replicas;
  header_.ns_per_tick = session.ns_per_tick;
}

void ChunkBuilder::begin(u64 flags, u32 nshards) {
  header_.version = kLogVersionSharded;
  header_.shard_count = nshards;
  header_.flags.store(flags & ~(log_flags::kActive | log_flags::kRingBuffer |
                                log_flags::kSpillDrain),
                      std::memory_order_relaxed);
  // tail, counter and dropped stay 0. Drop accounting lives in the
  // session's final residue dump, not in the chunks — a loader summing
  // both would double count.
  size_ = 0;
  added_ = 0;
  entries_ = 0;
  grow(kDirAt + static_cast<usize>(nshards) * sizeof(LogShard));
}

void ChunkBuilder::add_window(u64 start, const LogEntry* a, u64 na,
                              const LogEntry* b, u64 nb) {
  u64 len = na + nb;
  LogShard d;
  d.entry_offset = entries_;
  d.capacity = len;
  d.tail.store(len, std::memory_order_relaxed);
  d.drained.store(start, std::memory_order_relaxed);
  std::memcpy(buf_.data() + kDirAt + static_cast<usize>(added_) * sizeof(LogShard),
              static_cast<const void*>(&d), sizeof(LogShard));
  ++added_;
  entries_ += len;
  char* at = grow(static_cast<usize>(len) * sizeof(LogEntry));
  if (na > 0) std::memcpy(at, static_cast<const void*>(a), na * sizeof(LogEntry));
  if (nb > 0) {
    std::memcpy(at + na * sizeof(LogEntry), static_cast<const void*>(b),
                nb * sizeof(LogEntry));
  }
}

std::string_view ChunkBuilder::finish(u32 seq) {
  while (added_ < header_.shard_count) add_window(0, nullptr, 0);
  header_.max_entries = entries_;
  std::memcpy(buf_.data() + kHeaderAt, static_cast<const void*>(&header_),
              sizeof(LogHeader));
  ChunkFrame frame;
  frame.magic = kChunkMagic;
  frame.seq = seq;
  frame.payload_bytes = size_ - sizeof(ChunkFrame);
  frame.payload_crc =
      crc32c_mask(crc32c(buf_.data() + kHeaderAt, size_ - sizeof(ChunkFrame)));
  frame.header_crc = crc32c_mask(
      crc32c(&frame, sizeof(ChunkFrame) - 2 * sizeof(u32)));
  std::memcpy(buf_.data(), &frame, sizeof(ChunkFrame));
  return std::string_view(buf_.data(), size_);
}

std::string serialize_chunk(const LogHeader& session,
                            const std::vector<ShardWindow>& windows, u32 seq) {
  ChunkBuilder b;
  b.set_session(session);
  b.begin(session.flags.load(std::memory_order_relaxed),
          static_cast<u32>(windows.size()));
  for (const ShardWindow& w : windows) {
    b.add_window(w.start, w.entries.data(), w.entries.size());
  }
  return std::string(b.finish(seq));
}

bool parse_chunk(std::string_view bytes, u32* seq, std::string_view* payload,
                 std::string* error) {
  if (bytes.size() < sizeof(ChunkFrame)) {
    if (error) *error = "chunk shorter than its frame";
    return false;
  }
  ChunkFrame frame;
  std::memcpy(&frame, bytes.data(), sizeof(ChunkFrame));
  if (frame.magic != kChunkMagic) {
    if (error) *error = "bad chunk magic";
    return false;
  }
  u32 want = crc32c_mask(crc32c(bytes.data(), sizeof(ChunkFrame) - 2 * sizeof(u32)));
  if (frame.header_crc != want) {
    if (error) *error = "chunk frame checksum mismatch";
    return false;
  }
  if (frame.payload_bytes != bytes.size() - sizeof(ChunkFrame)) {
    if (error) *error = "chunk payload truncated";
    return false;
  }
  std::string_view body = bytes.substr(sizeof(ChunkFrame));
  if (frame.payload_crc != crc32c_mask(crc32c(body.data(), body.size()))) {
    if (error) *error = "chunk payload checksum mismatch";
    return false;
  }
  if (seq) *seq = frame.seq;
  if (payload) *payload = body;
  return true;
}

std::string chunk_path(const std::string& prefix, u32 seq) {
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".seg.%04u", seq);
  return prefix + suffix;
}

ChunkRead read_chunk(const std::string& prefix, u32 seq, std::string* bytes) {
  if (!read_file(chunk_path(prefix, seq), bytes)) return ChunkRead::kEnd;
  if (parse_chunk(*bytes, nullptr, nullptr, nullptr)) return ChunkRead::kOk;
  // Tolerate only a torn *trailing* chunk; a bad chunk followed by good
  // ones cannot come from the persist-before-advance protocol.
  if (file_exists(chunk_path(prefix, seq + 1))) return ChunkRead::kCorrupt;
  return ChunkRead::kEnd;
}

ChunkScan for_each_chunk(
    const std::string& prefix,
    const std::function<bool(u32 seq, std::string_view payload)>& fn) {
  for (u32 seq = 0;; ++seq) {
    std::string bytes;  // one chunk in memory: the previous one is gone
    switch (read_chunk(prefix, seq, &bytes)) {
      case ChunkRead::kEnd:
        return ChunkScan::kDone;
      case ChunkRead::kCorrupt:
        return ChunkScan::kCorrupt;
      case ChunkRead::kOk:
        break;
    }
    if (!fn(seq, std::string_view(bytes).substr(sizeof(ChunkFrame)))) {
      return ChunkScan::kStopped;
    }
  }
}

}  // namespace teeperf::drain
