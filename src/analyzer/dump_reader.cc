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

std::optional<DumpLayout> dump_layout(std::string_view head, u64 size) {
  head = head.substr(0, static_cast<usize>(std::min<u64>(size, head.size())));
  if (head.size() < sizeof(LogHeader)) return std::nullopt;
  alignas(LogHeader) unsigned char header_buf[sizeof(LogHeader)];
  std::memcpy(header_buf, head.data(), sizeof(LogHeader));
  const auto* h = reinterpret_cast<const LogHeader*>(header_buf);
  if (h->magic != kLogMagic) return std::nullopt;
  if (h->version != kLogVersion && h->version != kLogVersionSharded) {
    return std::nullopt;
  }
  DumpLayout d;
  d.ns_per_tick = h->ns_per_tick;
  if (!std::isfinite(d.ns_per_tick) || d.ns_per_tick < 0.0) d.ns_per_tick = 0.0;

  if (h->version == kLogVersion) {
    // Only complete entries present in the file are consumed; a log
    // truncated mid-write simply yields fewer entries (§II-B: the analyzer
    // dismisses records "which might be wrong at the end of the log"). The
    // clamp to `available` also defuses a corrupt tail/max_entries.
    d.entries_at = sizeof(LogHeader);
    d.available = (size - sizeof(LogHeader)) / sizeof(LogEntry);
    u64 tail = h->tail.load(std::memory_order_relaxed);
    d.windows.push_back({0, std::min({d.available, tail, h->max_entries}), 0});
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
  if (head.size() - sizeof(LogHeader) < dir_bytes) return std::nullopt;
  std::vector<LogShard> dir(nshards);
  std::memcpy(static_cast<void*>(dir.data()), head.data() + sizeof(LogHeader),
              dir_bytes);

  d.entries_at = sizeof(LogHeader) + dir_bytes;
  d.available = (size - d.entries_at) / sizeof(LogEntry);
  u64 budget = d.available;  // total entries all windows may hand to a consumer
  d.windows.resize(nshards);
  for (u32 s = 0; s < nshards; ++s) {
    DumpWindow& w = d.windows[s];
    w.start = dir[s].drained.load(std::memory_order_relaxed);
    u64 off = dir[s].entry_offset;
    if (off >= d.available) continue;  // also rejects u64-overflow offsets
    u64 n = dir[s].tail.load(std::memory_order_relaxed);
    // Subtraction form: off + capacity could wrap u64.
    n = std::min({n, dir[s].capacity, d.available - off, budget});
    budget -= n;
    w.offset = off;
    w.n = n;
  }
  return d;
}

std::optional<ParsedDump> parse_dump(std::string_view bytes) {
  auto layout = dump_layout(bytes, bytes.size());
  if (!layout) return std::nullopt;
  ParsedDump d;
  const LogEntry* base =
      entry_area(bytes.data() + layout->entries_at, layout->available, &d);
  d.shards.reserve(layout->windows.size());
  for (const DumpWindow& w : layout->windows) {
    d.shards.emplace_back(base + w.offset, static_cast<usize>(w.n));
  }
  d.layout = std::move(*layout);
  return d;
}

bool SpillStitcher::stitch(const DumpLayout& dump, std::vector<WindowTake>* takes) {
  if (cursors_.empty()) cursors_.assign(dump.windows.size(), 0);
  if (dump.windows.size() != cursors_.size()) return false;
  takes->clear();
  for (usize s = 0; s < cursors_.size(); ++s) {
    const DumpWindow& win = dump.windows[s];
    u64 skip = 0;
    if (win.start < cursors_[s]) {
      skip = cursors_[s] - win.start;
      if (skip >= win.n) continue;  // fully duplicate window
    }
    if (win.n > skip) takes->push_back({static_cast<u32>(s), skip, win.n - skip});
    cursors_[s] = win.start + win.n;
  }
  if (dump.ns_per_tick > 0.0) ns_per_tick_ = dump.ns_per_tick;
  return true;
}

bool SpillStitcher::absorb(const ParsedDump& dump, std::vector<ShardSpan>* spans) {
  if (!stitch(dump.layout, &takes_)) return false;
  spans->clear();
  for (const WindowTake& t : takes_) {
    spans->push_back({t.shard, dump.shards[t.shard].data() + t.skip, t.take});
  }
  return true;
}

}  // namespace teeperf::analyzer
