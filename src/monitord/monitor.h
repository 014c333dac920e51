// Monitord: continuous multi-session fleet monitoring (the TEEMon shape —
// PAPERS.md — on top of this repo's obs/session subsystems).
//
// A single host daemon discovers live profiling sessions through the
// on-disk session registry (common/session_registry.h), attaches to each
// session's obs telemetry region and shm log from the untrusted host side,
// and serves:
//   - a Prometheus text exposition of every session's gauges labeled
//     {session,pid} (plus {shard}/{thread} for the dynamic names) and the
//     daemon's own health metrics, and
//   - rolling flame graphs per session: aggregate snapshots
//     (MergeableProfile) rebuilt periodically from a bounded window of the
//     live shard tails, merged on request.
//
// Bounded per-tenant memory: attachment count is capped, each flame
// rebuild copies at most flame_window_entries log entries, and only
// flame_keep snapshots are retained per session — a session that
// runs for a week costs the same as one that ran for a minute. Sessions
// detach on owner death or descriptor removal, and the registry GC
// reclaims descriptors/segments of crashed sessions (counted in
// monitord.sessions.gc and journaled as session_gc events).
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/session_registry.h"
#include "common/shm.h"
#include "core/log_format.h"
#include "flamegraph/flamegraph.h"
#include "obs/session.h"

namespace teeperf::monitord {

struct MonitordOptions {
  std::string session_dir;       // "" → session_registry::registry_dir()
  u64 poll_interval_ms = 500;    // registry scan / attach / detach cadence
  u64 gc_interval_ms = 2000;     // stale-session GC cadence (0 = every poll)
  bool gc = true;                // reclaim stale descriptors + orphaned shm
  u32 max_sessions = 64;         // attachment cap (bounded fleet memory)
  u64 flame_interval_ms = 1000;  // min interval between flame rebuilds
  u64 flame_window_entries = 1u << 16;  // max entries copied per rebuild
  u32 flame_keep = 4;            // rolling snapshots retained per session
};

class Monitord {
 public:
  explicit Monitord(const MonitordOptions& options);
  ~Monitord();
  Monitord(const Monitord&) = delete;
  Monitord& operator=(const Monitord&) = delete;

  // Background poll loop (start is idempotent; stop joins).
  void start();
  void stop();

  // One registry scan: attach new live sessions, detach dead ones, rebuild
  // due flame snapshots, run GC when due. Public for tests and --once.
  void poll();

  // The Prometheus exposition page for the whole fleet.
  std::string scrape_metrics();

  // One JSON object per attached session (registry descriptor echo).
  std::string sessions_json() const;

  // Merged folded stacks over the session's rolling window (empty string
  // when no snapshot was built yet); nullopt for an unknown session.
  std::optional<std::string> flamegraph_folded(const std::string& session);
  // Same window rendered as a standalone SVG.
  std::optional<std::string> flamegraph_svg(const std::string& session);

  usize attached_count() const;
  const std::string& session_dir() const { return dir_; }

  // The daemon's own obs region (journal + self-metrics), always present.
  obs::SelfTelemetry& telemetry() { return *self_; }

 private:
  struct Session {
    session_registry::SessionDescriptor desc;
    std::unique_ptr<obs::SelfTelemetry> obs;  // null when session has none
    SharedMemoryRegion log_region;
    ProfileLog log;  // adopted view over log_region; valid iff log_ok
    bool log_ok = false;
    std::unordered_map<u64, std::string> symbols;
    bool symbols_loaded = false;
    std::deque<analyzer::MergeableProfile> flames;
    u64 last_flame_ns = 0;
  };

  void attach_locked(const session_registry::SessionDescriptor& desc);
  void build_flame_locked(Session* s, u64 now_ns);
  analyzer::MergeableProfile merged_flames_locked(const Session& s) const;
  void loop();

  MonitordOptions options_;
  std::string dir_;
  std::unique_ptr<obs::SelfTelemetry> self_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Session>> sessions_;
  u64 last_gc_ns_ = 0;

  std::thread loop_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
};

}  // namespace teeperf::monitord
