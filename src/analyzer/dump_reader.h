// The dump-parsing layer under the session walker (fold.h).
//
// A serialized compact dump — a recorder dump, a spill chunk payload, or a
// spill residue — parses into one window of entries per shard plus the
// absolute start cursor of each window; SpillStitcher deduplicates those
// windows when a session spans many chunk files. Every analysis reads
// through this one parser, so a hostile-input hardening fix lands once.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "core/log_format.h"

namespace teeperf::analyzer {

// A serialized dump's windows, read in place. Every header field is
// attacker-controlled once dumps come from a hostile host, and the raw byte
// buffer guarantees no alignment, so the header and the shard directory
// are copied out (reading LogHeader's atomics in place would be undefined)
// and every window is clamped to what the buffer holds. The entries
// themselves are not copied: each window is a span into the caller's
// buffer, which must outlive the ParsedDump — or, when that buffer is not
// aligned for LogEntry, into `owned`.
struct ParsedDump {
  ParsedDump() = default;
  ParsedDump(ParsedDump&&) = default;
  ParsedDump& operator=(ParsedDump&&) = default;
  ParsedDump(const ParsedDump&) = delete;  // would alias the original's `owned`
  ParsedDump& operator=(const ParsedDump&) = delete;

  // One window of entries per shard: v1 dumps parse into a single window,
  // v2 into one per directory entry (possibly empty). A thread's entries
  // live entirely inside one window.
  std::vector<std::span<const LogEntry>> shards;
  // Per-window absolute start cursor, parallel to `shards`: the serialized
  // directory's `drained` field. 0 for v1 dumps and for v2 logs that never
  // drained or wrapped; spill chunks and spill residue dumps record where
  // in the shard's stream each window begins, which is what lets the
  // multi-chunk loader stitch and deduplicate.
  std::vector<u64> starts;
  double ns_per_tick = 0.0;
  // An aligned copy of the entry area; filled only when the buffer was
  // misaligned. A move keeps its storage, so the spans stay valid.
  std::vector<LogEntry> owned;

};

// Parses one serialized dump. Never trusts the bytes: the header is copied
// out (no alignment or atomic assumptions on the buffer), every window is
// independently clamped to what the buffer actually holds, and the sum of
// all windows is budgeted so a hostile directory cannot multiply a small
// file into gigabytes. nullopt on a bad magic/version or sub-header buffer.
// The result's windows view `bytes` (see ParsedDump).
std::optional<ParsedDump> parse_dump(std::string_view bytes);

// One span of one shard's stream, viewing a dump's buffer.
struct ShardSpan {
  u32 shard = 0;
  const LogEntry* entries = nullptr;
  u64 n = 0;
};

// Stitches a sequence of parsed dumps (spill chunks in order, residue last)
// into per-shard streams without materializing them. Windows arrive in
// cursor order; a window starting below a shard's cursor overlaps what a
// crashed drainer already persisted and the duplicate prefix is skipped, a
// window starting above it sits after force-dropped entries (already
// accounted in the drop counters) and simply appends. A single dump
// stitches to its own non-empty windows.
class SpillStitcher {
 public:
  // Absorbs one dump's windows: *spans becomes its non-duplicate, non-empty
  // spans, at most one per shard, in shard order. The shard count is fixed
  // by the first dump absorbed; false on mismatch.
  bool absorb(const ParsedDump& dump, std::vector<ShardSpan>* spans);

  bool any() const { return !cursors_.empty(); }
  // The last nonzero tick rate seen (the residue dump's, normally).
  double ns_per_tick() const { return ns_per_tick_; }

 private:
  std::vector<u64> cursors_;
  double ns_per_tick_ = 0.0;
};

}  // namespace teeperf::analyzer
