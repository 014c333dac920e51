#include "analyzer/fold.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <utility>

#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/symbol_registry.h"
#include "drain/chunk_format.h"

namespace teeperf::analyzer {

namespace {

// Reads and verifies a session's chunk sequence on its own thread, one
// chunk ahead of the caller. Two buffers take turns: the caller folds one
// while the thread reads the next chunk into the other, so at most two
// chunk files are in memory and, once both buffers have grown to the
// largest chunk, reading allocates nothing.
class ChunkReader {
 public:
  explicit ChunkReader(std::string prefix)
      : prefix_(std::move(prefix)), thread_([this] { run(); }) {}

  // Stops the thread, early or not, and joins it.
  ~ChunkReader() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  ChunkReader(const ChunkReader&) = delete;
  ChunkReader& operator=(const ChunkReader&) = delete;

  // Swaps the next verified chunk file into *chunk (its payload starts at
  // sizeof(ChunkFrame)) and hands the caller's finished buffer back to the
  // thread for reuse: views into the previous chunk die here. False once
  // the sequence is over; status() then tells a clean end (kEnd) from a
  // corrupt middle chunk (kCorrupt). Rethrows what the thread threw
  // (allocation failure), as a scan on this thread would have.
  bool next(std::string* chunk) {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return full_; });
    if (error_) std::rethrow_exception(error_);
    if (status_ != drain::ChunkRead::kOk) return false;
    chunk->swap(slot_);
    full_ = false;
    cv_.notify_all();
    return true;
  }

  drain::ChunkRead status() {
    std::lock_guard<std::mutex> lk(mu_);
    return status_;
  }

 private:
  void run() {
    try {
      read_ahead();
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      error_ = std::current_exception();
      full_ = true;
      cv_.notify_all();
    }
  }

  void read_ahead() {
    std::string buf;
    for (u32 seq = 0;; ++seq) {
      drain::ChunkRead r = drain::read_chunk(prefix_, seq, &buf);
      std::unique_lock<std::mutex> lk(mu_);
      if (stop_) return;
      slot_.swap(buf);
      status_ = r;
      full_ = true;
      cv_.notify_all();
      if (r != drain::ChunkRead::kOk) return;
      cv_.wait(lk, [&] { return !full_ || stop_; });
      if (stop_) return;
      buf.swap(slot_);  // the caller's previous buffer
    }
  }

  const std::string prefix_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string slot_;  // a chunk for the caller, or a buffer it gave back
  drain::ChunkRead status_ = drain::ChunkRead::kOk;
  std::exception_ptr error_;
  bool full_ = false;  // slot_ and status_ (or error_) hold a result not yet taken
  bool stop_ = false;
  std::thread thread_;  // last: starts once the state above exists
};

// An open file descriptor, closed on scope exit.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int fd;
};

// Reads exactly `n` bytes at `off`; false if the file ends first or a read
// fails.
bool pread_all(int fd, void* buf, usize n, u64 off) {
  auto* at = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t got = ::pread(fd, at, n, static_cast<off_t>(off));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    at += got;
    n -= static_cast<usize>(got);
    off += static_cast<u64>(got);
  }
  return true;
}

// The consistency checks of validate(), fed span by span in feed order;
// per-thread state carries across spans.
class Validator final : public SpanConsumer {
 public:
  void consume(std::span<const ShardSpan> spans) override {
    for (const ShardSpan& sp : spans) {
      for (u64 i = 0; i < sp.n; ++i, ++index_) check(sp.entries[i]);
    }
  }

  std::vector<ValidationIssue> finish() {
    for (const auto& [tid, t] : threads_) {
      if (t.depth != 0) {
        issues_.push_back({ValidationIssue::Kind::kUnbalancedThread, tid, index_,
                           str_format("calls minus returns = %lld",
                                      static_cast<long long>(t.depth))});
      }
    }
    return std::move(issues_);
  }

 private:
  void check(const LogEntry& e) {
    ThreadCheck& t = threads_[e.tid];
    if (e.addr == 0) {
      issues_.push_back({ValidationIssue::Kind::kZeroAddress, e.tid, index_,
                         "entry has null address"});
    }
    if (t.has_counter && e.counter() < t.last_counter) {
      issues_.push_back(
          {ValidationIssue::Kind::kNonMonotonicCounter, e.tid, index_,
           str_format("counter %llu after %llu",
                      static_cast<unsigned long long>(e.counter()),
                      static_cast<unsigned long long>(t.last_counter))});
    }
    t.last_counter = e.counter();
    t.has_counter = true;
    t.depth += e.kind() == EventKind::kCall ? 1 : -1;
  }

  struct ThreadCheck {
    u64 last_counter = 0;
    bool has_counter = false;
    i64 depth = 0;
  };
  std::map<u64, ThreadCheck> threads_;
  std::vector<ValidationIssue> issues_;
  u64 index_ = 0;  // entries checked so far
};

}  // namespace

std::string resolve_name(const std::unordered_map<u64, std::string>& symbols,
                         u64 method) {
  auto it = symbols.find(method);
  if (it != symbols.end()) return it->second;
  std::string live = SymbolRegistry::instance().name_of(method);
  if (!live.empty()) return live;
  return str_format("0x%llx", static_cast<unsigned long long>(method));
}

void PathTree::grow() {
  slots_.assign(slots_.empty() ? 64 : slots_.size() * 2, Slot{});
  usize mask = slots_.size() - 1;
  for (usize i = 1; i < nodes_.size(); ++i) {
    usize at = slot_of(nodes_[i].parent, nodes_[i].method, mask);
    while (slots_[at].node != 0) at = (at + 1) & mask;
    slots_[at] = Slot{nodes_[i].method, nodes_[i].parent, static_cast<u32>(i)};
  }
}

void feed_log(const ProfileLog& log, SpanConsumer& out) {
  std::vector<LogWindow> windows(log.shard_count());
  for (u32 s = 0; s < windows.size(); ++s) windows[s] = log.window(s);
  std::vector<ShardSpan> spans;
  for (usize part = 0; part < 2; ++part) {
    spans.clear();
    for (u32 s = 0; s < windows.size(); ++s) {
      std::span<const LogEntry> sp = windows[s].spans[part];
      if (!sp.empty()) spans.push_back({s, sp.data(), sp.size()});
    }
    if (!spans.empty()) out.consume(spans);
  }
}

DumpFeed feed_dump_file(const std::string& path, SpillStitcher& stitcher,
                        SpanConsumer& out) {
  Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0) return DumpFeed::kMissing;
  struct stat st;
  if (::fstat(file.fd, &st) != 0 || st.st_size < 0) return DumpFeed::kShortRead;
  u64 size = static_cast<u64>(st.st_size);

  std::string head(static_cast<usize>(std::min<u64>(size, kDumpHeadBytes)), '\0');
  if (!pread_all(file.fd, head.data(), head.size(), 0)) return DumpFeed::kShortRead;
  auto layout = dump_layout(head, size);
  std::vector<WindowTake> takes;
  if (!layout || !stitcher.stitch(*layout, &takes)) return DumpFeed::kBad;

  u64 largest = 0;
  for (const WindowTake& t : takes) largest = std::max(largest, t.take);
  std::vector<LogEntry> block(static_cast<usize>(std::min(largest, kDumpBlockEntries)));
  for (const WindowTake& t : takes) {
    u64 first = layout->windows[t.shard].offset + t.skip;
    for (u64 done = 0; done < t.take;) {
      u64 n = std::min(t.take - done, kDumpBlockEntries);
      u64 at = layout->entries_at + (first + done) * sizeof(LogEntry);
      if (!pread_all(file.fd, block.data(), static_cast<usize>(n) * sizeof(LogEntry), at)) {
        return DumpFeed::kShortRead;
      }
      ShardSpan span{t.shard, block.data(), n};
      out.consume({&span, 1});
      done += n;
    }
  }
  return DumpFeed::kOk;
}

std::optional<SessionInfo> walk_session(const std::string& prefix,
                                        SpanConsumer& out, std::string* error) {
  auto fail = [&](const char* why) -> std::optional<SessionInfo> {
    if (error) *error = why;
    return std::nullopt;
  };
  bool spill = file_exists(drain::chunk_path(prefix, 0));
  SpillStitcher stitcher;

  if (spill) {
    // The reader thread reads and verifies chunk k+1 while this thread
    // folds chunk k straight out of its verified buffer.
    bool bad = false;
    {
      ChunkReader reader(prefix);
      std::string chunk;
      std::vector<ShardSpan> spans;
      while (!bad && reader.next(&chunk)) {
        auto pd = parse_dump(std::string_view(chunk).substr(sizeof(drain::ChunkFrame)));
        bad = !pd || !stitcher.absorb(*pd, &spans);
        if (!bad) out.consume(spans);
      }
      bad = bad || reader.status() == drain::ChunkRead::kCorrupt;
    }
    if (bad) return fail("corrupt chunk sequence");
  }

  // A spill session's residue dump is optional: a session killed before
  // dump time still analyzes from its chunks alone.
  switch (feed_dump_file(prefix + ".log", stitcher, out)) {
    case DumpFeed::kOk:
      break;
    case DumpFeed::kMissing:
      if (!spill) return fail("cannot read log");
      break;
    case DumpFeed::kBad:
      return fail(spill ? "bad residue dump" : "unparseable dump");
    case DumpFeed::kShortRead:
      return fail(spill ? "short read of residue dump" : "short read of dump");
  }
  if (!stitcher.any()) return fail("no chunks and no residue dump");

  SessionInfo info;
  if (auto sym = read_file(prefix + ".sym")) info.symbols = SymbolRegistry::parse(*sym);
  info.ns_per_tick = stitcher.ns_per_tick();
  return info;
}

std::vector<ValidationIssue> validate(const ProfileLog& log) {
  // Shard by shard, each window oldest first: the snapshot_ordered() layout
  // that entry_index points into.
  Validator v;
  for (u32 s = 0; s < log.shard_count(); ++s) {
    for (std::span<const LogEntry> sp : log.window(s).spans) {
      ShardSpan part{s, sp.data(), sp.size()};
      v.consume({&part, 1});
    }
  }
  return v.finish();
}

std::vector<ValidationIssue> validate(const LogEntry* entries, u64 n) {
  Validator v;
  ShardSpan all{0, entries, n};
  v.consume({&all, 1});
  return v.finish();
}

std::optional<std::vector<ValidationIssue>> validate_session(const std::string& prefix) {
  Validator v;
  if (!walk_session(prefix, v)) return std::nullopt;
  return v.finish();
}

}  // namespace teeperf::analyzer
