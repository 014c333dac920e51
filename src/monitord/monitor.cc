#include "monitord/monitor.h"

#include <unistd.h>

#include <algorithm>
#include <unordered_set>

#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/spin.h"
#include "core/symbol_registry.h"
#include "monitord/prom.h"
#include "obs/metric_names.h"

namespace teeperf::monitord {

namespace names = obs::metric_names;

Monitord::Monitord(const MonitordOptions& options) : options_(options) {
  dir_ = options.session_dir.empty() ? session_registry::registry_dir()
                                     : options.session_dir;
  // The daemon's own region is anonymous: monitord is the scraper, not a
  // scrape target of another host agent; its self-metrics ride along on
  // /metrics instead.
  self_ = obs::SelfTelemetry::create(obs::TelemetryOptions{});
  // Pre-register the self-metric series so the very first /metrics page
  // already carries them at zero (a counter created lazily on its first
  // increment would be invisible to the scrape that triggered it).
  self_->registry().counter(names::kMonitordScrapes);
  self_->registry().counter(names::kMonitordSessionsSeen);
  self_->registry().counter(names::kMonitordSessionsGc);
  self_->registry().counter(names::kMonitordFlameBuilds);
  self_->registry().histogram(names::kMonitordScrapeLatencyUs);
}

Monitord::~Monitord() { stop(); }

void Monitord::start() {
  if (started_) return;
  started_ = true;
  stop_.store(false, std::memory_order_release);
  loop_ = std::thread([this] { loop(); });
}

void Monitord::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  loop_.join();
  started_ = false;
}

void Monitord::loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    poll();
    for (u64 waited = 0;
         waited < options_.poll_interval_ms &&
         !stop_.load(std::memory_order_acquire);
         waited += 20) {
      usleep(20'000);
    }
  }
}

void Monitord::attach_locked(const session_registry::SessionDescriptor& desc) {
  auto s = std::make_unique<Session>();
  s->desc = desc;
  if (!desc.obs_shm.empty()) {
    s->obs = obs::SelfTelemetry::open(desc.obs_shm);
  }
  if (!desc.log_shm.empty() && s->log_region.open(desc.log_shm)) {
    s->log_ok = s->log.adopt(s->log_region.data(), s->log_region.size());
    if (!s->log_ok) s->log_region.close();
  }
  if (!s->obs && !s->log_ok) return;  // nothing attachable (yet) — retry next poll
  self_->journal().record(obs::EventType::kAttach, desc.pid, 0, desc.name);
  self_->registry().counter(names::kMonitordSessionsSeen).inc();
  sessions_[desc.name] = std::move(s);
}

void Monitord::poll() {
  u64 now = monotonic_ns();
  auto descriptors = session_registry::list_sessions(dir_);

  std::lock_guard<std::mutex> lock(mu_);

  // Detach: descriptor withdrawn, or owner died (detach-on-death — the
  // registry entry may outlive a crashed owner until GC runs).
  std::unordered_set<std::string> current;
  for (const auto& d : descriptors) current.insert(d.name);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (!current.count(it->first) ||
        !session_registry::pid_alive(it->second->desc.pid)) {
      self_->journal().record(obs::EventType::kDetach, it->second->desc.pid, 0,
                              it->first);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }

  // Attach new live sessions, up to the fleet cap.
  for (const auto& d : descriptors) {
    if (sessions_.count(d.name) || !session_registry::pid_alive(d.pid)) continue;
    if (sessions_.size() >= options_.max_sessions) break;
    attach_locked(d);
  }
  // (The attached-session gauge is emitted directly at scrape time —
  // scrape_metrics() — so it is live even between polls.)

  // Rolling flame snapshots.
  for (auto& [name, s] : sessions_) {
    if (s->log_ok &&
        now - s->last_flame_ns >= options_.flame_interval_ms * 1'000'000ull) {
      build_flame_locked(s.get(), now);
    }
  }

  // Stale-session GC: descriptors and shm segments orphaned by crashed
  // sessions (including ones this daemon never attached).
  if (options_.gc && now - last_gc_ns_ >= options_.gc_interval_ms * 1'000'000ull) {
    last_gc_ns_ = now;
    auto r = session_registry::gc_stale_sessions(dir_);
    if (r.descriptors || r.segments) {
      self_->registry()
          .counter(names::kMonitordSessionsGc)
          .add(r.descriptors + r.segments);
      self_->journal().record(obs::EventType::kSessionGc, r.descriptors,
                              r.segments);
    }
  }
}

void Monitord::build_flame_locked(Session* s, u64 now_ns) {
  s->last_flame_ns = now_ns;

  // Late symbol load: the session writes "<prefix>.sym" at child exit, so
  // early snapshots show raw addresses and later ones resolve names.
  if (!s->symbols_loaded && !s->desc.prefix.empty()) {
    if (auto sym = read_file(s->desc.prefix + ".sym")) {
      s->symbols = SymbolRegistry::parse(*sym);
      s->symbols_loaded = true;
    }
  }

  // Bounded copy of the newest window: at most flame_window_entries across
  // all shards, newest-first truncation per shard. Truncation can cut a
  // thread mid-stack; the fold tolerates the resulting strays. Only the
  // aggregate is kept, so the copy folds into path aggregates and no
  // Invocation is built.
  std::vector<LogEntry> entries;
  const ProfileLog& log = s->log;
  u32 n = log.shard_count();
  u64 per = n ? options_.flame_window_entries / n : 0;
  if (per == 0) per = 1;
  std::vector<usize> starts(n + 1, 0);
  for (u32 i = 0; i < n; ++i) {
    LogWindow w = log.window(i);
    w.append_to(&entries, w.size() > per ? w.size() - per : 0);
    starts[i + 1] = entries.size();
  }

  analyzer::StreamAnalyzer fold(s->symbols);
  for (u32 i = 0; i < n; ++i) {
    fold.feed(i, entries.data() + starts[i], starts[i + 1] - starts[i]);
  }
  s->flames.push_back(fold.finish());
  while (s->flames.size() > options_.flame_keep) s->flames.pop_front();
  self_->registry().counter(names::kMonitordFlameBuilds).inc();
}

analyzer::MergeableProfile Monitord::merged_flames_locked(
    const Session& s) const {
  analyzer::MergeableProfile merged;
  for (const auto& snapshot : s.flames) merged.merge(snapshot);
  return merged;
}

std::optional<std::string> Monitord::flamegraph_folded(
    const std::string& session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return std::nullopt;
  return merged_flames_locked(*it->second).folded();
}

std::optional<std::string> Monitord::flamegraph_svg(
    const std::string& session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return std::nullopt;
  flamegraph::SvgOptions svg;
  svg.title = "teeperf session " + session;
  return flamegraph::render_profile_svg(merged_flames_locked(*it->second), svg);
}

std::string Monitord::scrape_metrics() {
  u64 t0 = monotonic_ns();
  PromWriter w;
  std::string text;
  {
    std::lock_guard<std::mutex> lock(mu_);
    w.family(names::kMonitordSessionsAttached, obs::MetricType::kGauge, {},
             sessions_.size());
    w.collect(self_->registry(), {});
    for (const auto& [name, s] : sessions_) {
      Labels labels{{"session", name}, {"pid", std::to_string(s->desc.pid)}};
      // Synthesized liveness marker: an attached session always exports at
      // least this one series, even while its obs region is still empty
      // (metrics appear there only once the recorder attaches its watchdog).
      w.family(names::kSessionUp, obs::MetricType::kGauge, labels, 1);
      if (s->obs) {
        w.collect(s->obs->registry(), labels);
      } else if (s->log_ok) {
        // Telemetry-less session: liveness gauges straight off the log.
        w.family(names::kLogTail, obs::MetricType::kGauge, labels,
                 s->log.attempted());
        w.family(names::kLogDropped, obs::MetricType::kGauge, labels,
                 s->log.dropped());
        // Replica health likewise lives in the shm log (the directory's
        // election state is written by the session's detector thread), so
        // the fleet page carries trusted-time health even for sessions
        // whose obs region failed or was disabled.
        if (s->log.counter_replica_count() > 0) {
          const CounterReplicaDirectory* dir = s->log.replica_directory();
          w.family(names::kCounterReplicas, obs::MetricType::kGauge, labels,
                   s->log.counter_replica_count());
          w.family(names::kCounterReplicaPrimary, obs::MetricType::kGauge,
                   labels, dir->primary.load(std::memory_order_relaxed));
          w.family(names::kCounterFailover, obs::MetricType::kGauge, labels,
                   dir->failovers.load(std::memory_order_relaxed));
        }
      }
    }
    text = w.render();
  }
  u64 us = (monotonic_ns() - t0) / 1000;
  self_->registry().histogram(names::kMonitordScrapeLatencyUs).add(us);
  self_->registry().counter(names::kMonitordScrapes).inc();
  return text;
}

std::string Monitord::sessions_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, s] : sessions_) {
    out += session_registry::to_json(s->desc);
  }
  return out;
}

usize Monitord::attached_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace teeperf::monitord
