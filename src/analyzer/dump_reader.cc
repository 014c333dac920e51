#include "analyzer/dump_reader.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

namespace teeperf::analyzer {

namespace {

// The first `n` entries at `at`, in place when `at` is aligned for
// LogEntry (the common case: file buffers come from the heap, and every
// serialized offset is a multiple of 8), else copied once into d->owned.
const LogEntry* entry_area(const char* at, u64 n, ParsedDump* d) {
  if (reinterpret_cast<uintptr_t>(at) % alignof(LogEntry) == 0) {
    return reinterpret_cast<const LogEntry*>(at);
  }
  d->owned.resize(static_cast<usize>(n));
  if (n > 0) {
    std::memcpy(static_cast<void*>(d->owned.data()), at,
                static_cast<usize>(n) * sizeof(LogEntry));
  }
  return d->owned.data();
}

}  // namespace

std::optional<ParsedDump> parse_dump(std::string_view bytes) {
  if (bytes.size() < sizeof(LogHeader)) return std::nullopt;
  alignas(LogHeader) unsigned char header_buf[sizeof(LogHeader)];
  std::memcpy(header_buf, bytes.data(), sizeof(LogHeader));
  const auto* h = reinterpret_cast<const LogHeader*>(header_buf);
  if (h->magic != kLogMagic) return std::nullopt;
  if (h->version != kLogVersion && h->version != kLogVersionSharded) {
    return std::nullopt;
  }
  ParsedDump d;
  d.ns_per_tick = h->ns_per_tick;
  if (!std::isfinite(d.ns_per_tick) || d.ns_per_tick < 0.0) d.ns_per_tick = 0.0;

  if (h->version == kLogVersion) {
    // Only complete entries present in the buffer are consumed; a log
    // truncated mid-write simply yields fewer entries (§II-B: the analyzer
    // dismisses records "which might be wrong at the end of the log"). The
    // clamp to `available` also defuses a corrupt tail/max_entries.
    u64 available = (bytes.size() - sizeof(LogHeader)) / sizeof(LogEntry);
    u64 tail = h->tail.load(std::memory_order_relaxed);
    u64 n = std::min({available, tail, h->max_entries});
    const LogEntry* base = entry_area(bytes.data() + sizeof(LogHeader), n, &d);
    d.shards.emplace_back(base, static_cast<usize>(n));
    d.starts.push_back(0);
    return d;
  }

  // v2: a shard directory follows the header; every field in it is as
  // attacker-controlled as the header, so each window is independently
  // clamped and the sum of all windows is budgeted against what the file
  // actually holds — a hostile directory of kMaxLogShards overlapping
  // full-size segments must not multiply a small file into gigabytes of
  // entries to reconstruct.
  u32 nshards = h->shard_count;
  if (nshards == 0 || nshards > kMaxLogShards) return std::nullopt;
  usize dir_bytes = static_cast<usize>(nshards) * sizeof(LogShard);
  if (bytes.size() - sizeof(LogHeader) < dir_bytes) return std::nullopt;
  std::vector<LogShard> dir(nshards);
  std::memcpy(static_cast<void*>(dir.data()), bytes.data() + sizeof(LogHeader),
              dir_bytes);

  u64 available = (bytes.size() - sizeof(LogHeader) - dir_bytes) / sizeof(LogEntry);
  const LogEntry* base =
      entry_area(bytes.data() + sizeof(LogHeader) + dir_bytes, available, &d);
  u64 budget = available;  // total entries all windows may hand to a consumer
  d.shards.resize(nshards);
  d.starts.resize(nshards, 0);
  for (u32 s = 0; s < nshards; ++s) {
    d.starts[s] = dir[s].drained.load(std::memory_order_relaxed);
    u64 off = dir[s].entry_offset;
    if (off >= available) continue;  // also rejects u64-overflow offsets
    u64 n = dir[s].tail.load(std::memory_order_relaxed);
    // Subtraction form: off + capacity could wrap u64.
    n = std::min({n, dir[s].capacity, available - off, budget});
    budget -= n;
    d.shards[s] = std::span<const LogEntry>(base + off, static_cast<usize>(n));
  }
  return d;
}

bool SpillStitcher::absorb(const ParsedDump& dump, std::vector<ShardSpan>* spans) {
  if (cursors_.empty()) cursors_.assign(dump.shards.size(), 0);
  if (dump.shards.size() != cursors_.size()) return false;
  spans->clear();
  for (usize s = 0; s < cursors_.size(); ++s) {
    std::span<const LogEntry> win = dump.shards[s];
    u64 start = dump.starts[s];
    u64 skip = 0;
    if (start < cursors_[s]) {
      skip = cursors_[s] - start;
      if (skip >= win.size()) continue;  // fully duplicate window
    }
    if (win.size() > skip) {
      spans->push_back({static_cast<u32>(s), win.data() + skip, win.size() - skip});
    }
    cursors_[s] = start + win.size();
  }
  if (dump.ns_per_tick > 0.0) ns_per_tick_ = dump.ns_per_tick;
  return true;
}

}  // namespace teeperf::analyzer
