// On-disk chunk format for the streaming spill drainer (DESIGN.md §10).
//
// Each drain round persists the windows it consumed as one chunk file,
// `<prefix>.seg.NNNN`. A chunk is a CRC32C-framed compact v2 sub-log:
//
//   ChunkFrame (32 bytes, checksummed)
//   LogHeader copy           |
//   rewritten LogShard dir   | the payload — loadable with the same code
//   packed shard windows     | path as any compact dump
//
// The directory's `drained` field is repurposed on disk to carry each
// window's absolute start cursor (the shard's `drained` value when the
// window was copied). That is what lets the multi-chunk loader stitch
// chunks and the final residue into one per-shard stream — and skip the
// overlap a drainer crash between persist and cursor-advance leaves behind.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::drain {

inline constexpr u64 kChunkMagic = 0x5450534547303031ull;  // "TPSEG001"

// Fixed-size frame ahead of the payload. `header_crc` covers the first 24
// bytes of the frame, `payload_crc` the payload; both are stored masked
// (crc32c_mask) following the LevelDB convention used by the kvstore.
struct ChunkFrame {
  u64 magic = 0;
  u32 seq = 0;
  u32 reserved = 0;  // zeroed: keeps serialized frames byte-deterministic
  u64 payload_bytes = 0;
  u32 payload_crc = 0;
  u32 header_crc = 0;
};
static_assert(sizeof(ChunkFrame) == 32);

// One shard's consumed window: `start` is the absolute cursor of
// entries.front() within that shard's stream.
struct ShardWindow {
  u64 start = 0;
  std::vector<LogEntry> entries;
};

// Builds one framed chunk in a buffer that lives across chunks, so a drain
// round copies each window exactly once: from shared memory straight into
// the bytes that are checksummed and written. Usage:
//
//   set_session(header) once; then per chunk: begin(flags, nshards);
//   add_window(...) once per shard, in shard order; finish(seq) -> the
//   chunk's bytes, valid until the next begin().
//
// Ring/spill/active flags are cleared so the payload reads as a plain
// bounded compact dump. The live `counter`, `tail` and `dropped` words are
// written as 0: other threads store to them while a session runs, and no
// loader reads them from a chunk.
class ChunkBuilder {
 public:
  // Takes the header fields every chunk carries (magic, pid, counter_mode,
  // ns_per_tick, ...) from `session`. These are plain fields that only the
  // session's owner writes, so call this from the owner's thread, before
  // the chunks that should carry them.
  void set_session(const LogHeader& session);
  // Starts a chunk. `flags` is an atomic load of the live header's flags.
  void begin(u64 flags, u32 nshards);
  // Appends the next shard's window: `start` is its absolute cursor, and
  // its entries are [a, a + na) followed by [b, b + nb) — two spans, so a
  // window that wraps the shard ring copies without staging.
  void add_window(u64 start, const LogEntry* a, u64 na,
                  const LogEntry* b = nullptr, u64 nb = 0);
  // Writes the header and the frame, with both CRCs over the finished
  // buffer. Shards never added read as empty windows.
  std::string_view finish(u32 seq);

 private:
  char* grow(usize n);  // appends n bytes of room, returns their start

  LogHeader header_;       // copied into the buffer by finish()
  std::vector<char> buf_;  // grows to the largest chunk seen, never shrinks
  usize size_ = 0;
  u32 added_ = 0;
  u64 entries_ = 0;
};

// Serializes one drain round as a framed chunk through ChunkBuilder: the
// same bytes the drainer writes for the same windows.
std::string serialize_chunk(const LogHeader& session,
                            const std::vector<ShardWindow>& windows, u32 seq);

// Verifies the frame and both CRCs. On success fills *seq and *payload (a
// view into `bytes`) and returns true; on failure fills *error.
bool parse_chunk(std::string_view bytes, u32* seq, std::string_view* payload,
                 std::string* error);

// "<prefix>.seg.NNNN" (zero-padded to four digits; more digits if needed).
std::string chunk_path(const std::string& prefix, u32 seq);

// Outcome of a sequential chunk scan.
enum class ChunkScan {
  kDone,     // every chunk consumed (a torn trailing chunk is tolerated:
             // the drainer died mid-write, so its window was never marked
             // drained and the same entries reappear in the residue dump)
  kCorrupt,  // a chunk failed verification but a later chunk exists on
             // disk — that sequence cannot come from the protocol
  kStopped,  // the callback returned false
};

// One step of a sequential chunk scan: reads "<prefix>.seg.<seq>" into
// *bytes (reusing its capacity) and verifies it. On kOk the payload is
// bytes->substr(sizeof(ChunkFrame)). The torn-versus-corrupt policy of
// ChunkScan lives here, once, for every reader of a chunk sequence.
enum class ChunkRead {
  kOk,
  kEnd,      // no such chunk, or a torn trailing one: the sequence is over
  kCorrupt,  // failed verification, yet a later chunk exists on disk
};
ChunkRead read_chunk(const std::string& prefix, u32 seq, std::string* bytes);

// Visits "<prefix>.seg.NNNN" files in sequence order, reading ONE file into
// memory at a time — the bounded-memory primitive under both the in-memory
// spill loader and the streaming analyzer. `fn` receives each verified
// chunk's payload (a compact v2 sub-log; the view dies with the call) and
// returns false to stop the scan early.
ChunkScan for_each_chunk(
    const std::string& prefix,
    const std::function<bool(u32 seq, std::string_view payload)>& fn);

}  // namespace teeperf::drain
