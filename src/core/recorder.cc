#include "core/recorder.h"

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "common/fileutil.h"
#include "common/session_registry.h"
#include "common/spin.h"
#include "common/stringutil.h"
#include "core/runtime.h"
#include "faultsim/fault.h"
#include "faultsim/fault_points.h"
#include "obs/metric_names.h"
#include "core/symbol_dump.h"
#include "obs/export.h"

namespace teeperf {

u32 pick_shard_count(i64 requested, u64 max_entries) {
  if (requested == 0) return 1;
  if (requested > 0) {
    return requested > kMaxLogShards ? kMaxLogShards
                                     : static_cast<u32>(requested);
  }
  // Auto: a power of two covering the hardware concurrency (so tid % N
  // spreads threads evenly), clamped to [1, 64] and then reduced until each
  // shard keeps >= 1024 entries — small test logs collapse to one shard.
  u32 hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  u32 n = 1;
  while (n < hw && n < 64) n <<= 1;
  while (n > 1 && max_entries / n < 1024) n >>= 1;
  return n;
}

std::unique_ptr<Recorder> Recorder::create(const RecorderOptions& options) {
  auto rec = std::unique_ptr<Recorder>(new Recorder());
  rec->options_ = options;
  u32 shards = pick_shard_count(options.shards, options.max_entries);
  // Replicated trusted time applies only to the software counter; TSC and
  // the steady clock are per-core hardware sources with nothing to replicate.
  // One replica is the single counter, which needs no block.
  u32 replicas = options.counter_mode == CounterMode::kSoftware &&
                         options.counter_replicas >= 2
                     ? std::min(options.counter_replicas, kMaxCounterReplicas)
                     : 0;
  rec->options_.counter_replicas = replicas;
  usize bytes =
      ProfileLog::bytes_for_replicated(options.max_entries, shards, replicas);
  bool ok;
  if (options.shm_name == "auto") {
    // Fresh multi-session name "/teeperf.<pid>.<nonce>.log"; the nonce
    // makes concurrent sessions (and pid reuse) collision-free. create() is
    // O_EXCL, so a nonce collision just retries with a new one.
    ok = false;
    for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
      rec->options_.shm_name =
          session_registry::shm_base(static_cast<u64>(getpid()),
                                     session_registry::make_nonce()) +
          ".log";
      ok = rec->shm_.create(rec->options_.shm_name, bytes);
    }
  } else {
    ok = options.shm_name.empty()
             ? rec->shm_.create_anonymous(bytes)
             : rec->shm_.create(options.shm_name, bytes);
  }
  if (!ok) return nullptr;

  u64 flags = log_flags::kMultithread;
  if (options.ring_buffer) flags |= log_flags::kRingBuffer;
  if (options.spill_drain) flags |= log_flags::kSpillDrain;
  if (options.start_active) flags |= log_flags::kActive;
  if (options.record_calls) flags |= log_flags::kRecordCalls;
  if (options.record_returns) flags |= log_flags::kRecordReturns;
  if (!rec->log_.init(rec->shm_.data(), bytes, static_cast<u64>(getpid()), flags,
                      shards, replicas)) {
    return nullptr;
  }
  rec->log_.header()->counter_mode = static_cast<u32>(options.counter_mode);

  // The telemetry region shares the session's shm base: "<base>.obs" next
  // to "<base>.log" in the multi-session scheme, legacy "<name>.obs" for
  // names without the ".log" suffix.
  const std::string& log_name = rec->options_.shm_name;
  std::string obs_base = log_name;
  if (ends_with(obs_base, ".log")) obs_base.resize(obs_base.size() - 4);
  if (options.telemetry) {
    obs::TelemetryOptions topts;
    if (!log_name.empty()) topts.shm_name = obs_base + ".obs";
    rec->telemetry_ = obs::SelfTelemetry::create(topts);
    // A failed telemetry region (e.g. shm exhaustion) degrades to a blind
    // session rather than failing the profile.
  }
  CounterServiceOptions copts;
  copts.yield_every = options.software_counter_yield;
  rec->counter_ = std::make_unique<CounterService>(
      &rec->log_, options.counter_mode, copts,
      rec->telemetry_ ? &rec->telemetry_->journal() : nullptr);

  // Named sessions announce themselves in the on-disk registry so
  // host-side observers (teeperf_monitord, teeperf_stats --list) can
  // discover and attach without guessing shm names. Withdrawn in the
  // destructor; a crashed session is reclaimed by stale-session GC.
  if (!log_name.empty() && options.publish_session) {
    session_registry::SessionDescriptor& desc = rec->session_;
    std::string name = obs_base;
    for (char& c : name) {
      if (c == '/') c = '.';
    }
    while (!name.empty() && name.front() == '.') name.erase(name.begin());
    desc.name = name;
    desc.pid = static_cast<u64>(getpid());
    desc.log_shm = log_name;
    if (rec->telemetry_) desc.obs_shm = rec->telemetry_->shm_name();
    desc.capacity = options.max_entries;
    desc.shards = rec->log_.shard_count();
    desc.start_ns = monotonic_ns();
    rec->session_dir_ = options.session_dir.empty()
                            ? session_registry::registry_dir()
                            : options.session_dir;
    if (!session_registry::publish_session(rec->session_dir_, desc)) {
      desc = {};
    }
  }
  return rec;
}

Recorder::~Recorder() {
  detach();
  if (!session_.name.empty()) {
    session_registry::unpublish_session(session_dir_, session_.name);
  }
  if (telemetry_) obs::uninstall(telemetry_.get());
}

bool Recorder::attach() {
  if (attached_) return true;
  if (!runtime::attach(&log_, options_.counter_mode, options_.filter)) return false;
  attached_ = symbolize_ = true;
  serve();
  return true;
}

void Recorder::serve(const std::string& dump_prefix,
                     std::function<DrainSample()> drain) {
  if (serving_) return;
  serving_ = true;
  counter_->start();
  // Republished (tmp + rename) so a monitor's late .sym load finds the
  // file the application writes next to the dump.
  if (!dump_prefix.empty() && !session_.name.empty()) {
    session_.prefix = dump_prefix;
    session_registry::publish_session(session_dir_, session_);
  }
  if (!telemetry_) return;
  // Publish for the hook instrumentation (runtime.cc) and the external
  // fault-arming bridge, then start the watchdog against the live counter
  // and log.
  obs::install(telemetry_.get());
  CounterService* counter = counter_.get();
  const char* mode = counter_mode_name(counter->mode());
  telemetry_->journal().record(obs::EventType::kAttach,
                               static_cast<u64>(getpid()), 0, mode);
  telemetry_->registry()
      .gauge(obs::metric_names::kLogCapacity)
      .set(log_.capacity());
  watchdog_ = std::make_unique<obs::Watchdog>(
      &telemetry_->registry(), &telemetry_->journal(),
      [counter] { return counter->observe(); }, mode,
      options_.watchdog_interval_ms);
  watchdog_->watch_log([log = &log_, drain = std::move(drain)] {
    obs::LogSample s;
    s.tail = log->attempted();
    s.capacity = log->capacity();
    s.active = log->active();
    s.ring = (log->flags() & log_flags::kRingBuffer) != 0;
    s.spill = log->spill();
    s.dropped = log->dropped();
    for (u32 i = 0; i < log->shard_count(); ++i) {
      s.shard_tails.push_back(
          log->shard(i)->tail.load(std::memory_order_relaxed));
    }
    if (s.spill && drain) {
      DrainSample d = drain();
      s.drain_lag = d.lag_entries;
      s.drain_spilled_bytes = d.spilled_bytes;
      s.drained_entries = d.drained_entries;
    }
    return s;
  });
  watchdog_->start();
}

void Recorder::detach() {
  if (attached_) runtime::detach();
  attached_ = false;
  if (!serving_) return;
  if (watchdog_) {
    watchdog_->stop();
    watchdog_.reset();
  }
  if (telemetry_) {
    telemetry_->journal().record(obs::EventType::kDetach, log_.size(),
                                 log_.dropped());
  }
  counter_->stop();
  // The finished run's calibration, for a spill session's final chunks
  // (drained between detach() and dump()).
  log_.header()->ns_per_tick = counter_->ns_per_tick().value_or(0.0);
  serving_ = false;
}

void Recorder::start() {
  log_.set_active(true);
  if (telemetry_) telemetry_->journal().record(obs::EventType::kActivate);
}

void Recorder::stop() {
  log_.set_active(false);
  if (telemetry_) telemetry_->journal().record(obs::EventType::kDeactivate);
}

Recorder::Stats Recorder::stats() const {
  Stats s;
  s.entries = log_.size();
  s.dropped = log_.dropped();
  s.capacity = log_.capacity();
  s.attempted = log_.attempted();
  s.shards = log_.shard_count();
  s.torn_tail = log_.count_torn_tail();
  obs::CounterSample h = counter_->health();
  s.counter_stalled = h.stalled;
  s.counter_replicas = h.replicas;
  s.counter_failovers = h.failovers;
  s.counter_backjumps = h.backjumps;
  return s;
}

bool Recorder::dump(const std::string& prefix) {
  // Fault point: the whole session dying at dump time — nothing persisted,
  // descriptor and shm segments left orphaned for stale-session GC.
  if (fault::fires(fault_points::kRecorderDumpDie)) {
    raise(SIGKILL);  // teeperf-lint: allow(r1): the fault IS the syscall
  }

  // The counter service's calibration of the word the probes read, over
  // the run so far (or the finished run after detach()). ns_per_tick = 0 in
  // the header means "uncalibrated"; the analyzer then reports raw ticks
  // instead of fabricated time.
  log_.header()->ns_per_tick = counter_->ns_per_tick().value_or(0.0);

  // Fault point: the dump failing outright (disk full, signal mid-exit).
  if (fault::fires(fault_points::kDumpFail)) return false;

  // The log persists in compact form: windows packed back-to-back, ring
  // order normalized, directory rewritten — so the analyzer's offline
  // loader needs no wrap or gap logic. The entries go from shm straight to
  // the file; the byte faults then mangle the written file, never the live
  // log.
  std::string log_path = prefix + ".log";
  if (!log_.write_compact(log_path)) return false;
  fault::apply_byte_faults_to_file(fault_points::kDumpPrefix, log_path);

  // Self-telemetry sidecars: the health snapshot embedded in analyzer
  // reports, and the event journal as JSON-lines. A dying writer is the
  // moment torn tails become detectable, so scan now.
  if (telemetry_) {
    if (u64 torn = log_.count_torn_tail()) {
      telemetry_->journal().record(obs::EventType::kTornTail, torn);
      telemetry_->registry().gauge(obs::metric_names::kLogTornTail).set(torn);
    }
    write_file(prefix + ".health",
               obs::health_text(telemetry_->registry(), telemetry_->journal()));
    write_file(prefix + ".events.jsonl",
               obs::events_jsonl(telemetry_->journal()));
  }

  // Symbol file: every registered symbol, then dladdr resolutions for raw
  // addresses recorded via the -finstrument-functions route. dladdr plays
  // the role of the paper's addr2line/DWARF lookup (see DESIGN.md). Only
  // an attached process can resolve its own addresses; a served
  // application writes the .sym itself at exit.
  return !symbolize_ || write_file(prefix + ".sym", build_symbol_file(log_));
}

}  // namespace teeperf
