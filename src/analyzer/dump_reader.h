// The dump-parsing layer under the session walker (fold.h).
//
// A serialized compact dump — a recorder dump, a spill chunk payload, or a
// spill residue — lays out into one window of entries per shard plus the
// absolute start cursor of each window; SpillStitcher deduplicates those
// windows when a session spans many chunk files. Every analysis lays a
// dump out through dump_layout(), whether it then views the entries in
// memory (parse_dump) or reads them from the file in blocks (fold.h), so a
// hostile-input hardening fix lands once.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

// Where one shard's window lies in a serialized dump: `n` entries from
// entry `offset` of the entry area, the first at absolute stream cursor
// `start` (the serialized directory's `drained` field: 0 for v1 dumps and
// for v2 logs that never drained or wrapped; spill chunks and spill residue
// dumps record where in the shard's stream each window begins, which is
// what lets the multi-chunk loader stitch and deduplicate).
struct DumpWindow {
  u64 offset = 0;
  u64 n = 0;
  u64 start = 0;
};

// A serialized dump's shape, computed from its header, its shard directory
// and its size alone, so a reader can fetch the entries however it likes.
struct DumpLayout {
  u64 entries_at = 0;  // byte offset of the entry area
  u64 available = 0;   // complete entries the entry area holds
  // One window per shard: v1 dumps have a single window, v2 one per
  // directory entry (possibly empty). A thread's entries live entirely
  // inside one window.
  std::vector<DumpWindow> windows;
  double ns_per_tick = 0.0;  // finite and >= 0 (else 0)
};

// The most leading bytes dump_layout() reads: the header and the largest
// shard directory it believes.
inline constexpr usize kDumpHeadBytes =
    sizeof(LogHeader) + static_cast<usize>(kMaxLogShards) * sizeof(LogShard);

// Lays out a serialized dump of `size` bytes whose first
// min(size, kDumpHeadBytes) bytes are `head` (more are ignored). Never
// trusts the bytes: the header and directory are copied out (no alignment
// or atomic assumptions on the buffer), every window is independently
// clamped to the entries the file holds, and the sum of all windows is
// budgeted against them so a hostile directory cannot multiply a small
// file into gigabytes. Entries past the last complete one (a log cut
// mid-write) are not counted. nullopt on a bad magic or version, a
// sub-header size, or a v2 directory that is empty, oversized or cut off.
std::optional<DumpLayout> dump_layout(std::string_view head, u64 size);

// A serialized dump read in place: its layout plus one span per window.
// The raw byte buffer guarantees no alignment, so the entries are viewed in
// the caller's buffer, which must outlive the ParsedDump, or, when that
// buffer is not aligned for LogEntry, in `owned`.
struct ParsedDump {
  ParsedDump() = default;
  ParsedDump(ParsedDump&&) = default;
  ParsedDump& operator=(ParsedDump&&) = default;
  ParsedDump(const ParsedDump&) = delete;  // would alias the original's `owned`
  ParsedDump& operator=(const ParsedDump&) = delete;

  DumpLayout layout;
  // layout.windows' entries, one span per window.
  std::vector<std::span<const LogEntry>> shards;
  // An aligned copy of the entry area; filled only when the buffer was
  // misaligned. A move keeps its storage, so the spans stay valid.
  std::vector<LogEntry> owned;
};

// Parses one serialized dump held in memory (a chunk payload, a fuzzer
// input): dump_layout() over the bytes, whose windows then view `bytes`
// (see ParsedDump).
std::optional<ParsedDump> parse_dump(std::string_view bytes);

// One span of one shard's stream, viewing a dump's buffer.
struct ShardSpan {
  u32 shard = 0;
  const LogEntry* entries = nullptr;
  u64 n = 0;
};

// The part of one dump window that continues its shard's stream: entries
// [skip, skip + take) of the window.
struct WindowTake {
  u32 shard = 0;
  u64 skip = 0;
  u64 take = 0;
};

// Stitches a sequence of dumps (spill chunks in order, residue last) into
// per-shard streams without materializing them. Windows arrive in cursor
// order; a window starting below a shard's cursor overlaps what a crashed
// drainer already persisted and the duplicate prefix is skipped, a window
// starting above it sits after force-dropped entries (already accounted in
// the drop counters) and simply appends. A single dump stitches to its own
// non-empty windows.
class SpillStitcher {
 public:
  // Absorbs one dump's windows from their extents alone: *takes becomes
  // the non-duplicate, non-empty part of each window, at most one per
  // shard, in shard order. The shard count is fixed by the first dump
  // absorbed; false on mismatch.
  bool stitch(const DumpLayout& dump, std::vector<WindowTake>* takes);

  // stitch() over a parsed dump: *spans views the takes in its buffer.
  bool absorb(const ParsedDump& dump, std::vector<ShardSpan>* spans);

  bool any() const { return !cursors_.empty(); }
  // Shard `s`'s stream cursor: one past the last entry absorbed.
  u64 cursor(usize s) const { return cursors_[s]; }
  // The last nonzero tick rate seen (the residue dump's, normally).
  double ns_per_tick() const { return ns_per_tick_; }

 private:
  std::vector<u64> cursors_;
  std::vector<WindowTake> takes_;  // absorb()'s scratch
  double ns_per_tick_ = 0.0;
};

}  // namespace teeperf::analyzer
