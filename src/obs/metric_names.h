// Obs metric/gauge/histogram name manifest — the single source of truth
// for every self-telemetry name registered in the tree (teeperf_lint
// rule R4).
//
// Instrumented code passes these constants to MetricsRegistry::counter()
// / gauge() / histogram() instead of repeating the string literal at
// each site, so a scraper-side consumer (teeperf_stats, the analyzer's
// recorder-health section) and the registering site can never drift
// apart silently. teeperf_lint flags any raw name literal passed to a
// registration call outside this header, and flags constants defined
// here that no code references.
//
// Names composed at runtime (the per-thread "app.thread.<tid>.entries"
// counters, the "fault.arm.<point>" arming gauges) are represented by
// their prefix constants; the lint treats dynamic composition as opaque.
#pragma once

namespace teeperf::obs::metric_names {

// Counter-health watchdog (obs/watchdog.cc).
inline constexpr char kWatchdogTicks[] = "watchdog.ticks";
inline constexpr char kWatchdogStallEvents[] = "watchdog.stall_events";
inline constexpr char kWatchdogDriftEvents[] = "watchdog.drift_events";
inline constexpr char kCounterNsPerTickPico[] = "counter.ns_per_tick_pico";
inline constexpr char kCounterStalled[] = "counter.stalled";
inline constexpr char kCounterDrifting[] = "counter.drifting";
inline constexpr char kWatchdogBackjumpEvents[] = "watchdog.backjump_events";

// Replicated trusted time (core/counter.cc, published through the
// watchdog from the counter service's health sample — DESIGN.md §13).
inline constexpr char kCounterReplicas[] = "counter.replicas";
inline constexpr char kCounterReplicaPrimary[] = "counter.replica.primary";
inline constexpr char kCounterReplicaDrift[] = "counter.replica.drift";
inline constexpr char kCounterReplicaStalled[] = "counter.replica.stalled";
inline constexpr char kCounterFailover[] = "counter.failover";

// Shared-memory log health (obs/watchdog.cc, core/recorder.cc).
inline constexpr char kLogTail[] = "log.tail";
inline constexpr char kLogCapacity[] = "log.capacity";
inline constexpr char kLogOccupancyPermille[] = "log.occupancy_permille";
inline constexpr char kLogEntryRatePerS[] = "log.entry_rate_per_s";
inline constexpr char kLogEntryRatePeakPerS[] = "log.entry_rate_peak_per_s";
inline constexpr char kLogDropped[] = "log.dropped";
inline constexpr char kLogRingWraps[] = "log.ring_wraps";
inline constexpr char kLogActive[] = "log.active";
inline constexpr char kLogShards[] = "log.shards";
inline constexpr char kLogTornTail[] = "log.torn_tail";

// Streaming spill drainer (obs/watchdog.cc; fed by drain/drainer.cc via
// the recorder's log sample).
inline constexpr char kDrainLagEntries[] = "drain.lag_entries";
inline constexpr char kDrainSpilledBytes[] = "drain.spilled_bytes";
inline constexpr char kDrainStall[] = "drain.stall";

// EPC paging (tee/epc.cc).
inline constexpr char kEpcPageIns[] = "epc.page_ins";
inline constexpr char kEpcPageOuts[] = "epc.page_outs";
inline constexpr char kEpcResidentPages[] = "epc.resident_pages";
inline constexpr char kEpcResidentLimit[] = "epc.resident_limit";

// Sampling profiler (perfsim/sampler.cc).
inline constexpr char kSamplerFrequencyHz[] = "sampler.frequency_hz";
inline constexpr char kSamplerSamples[] = "sampler.samples";
inline constexpr char kSamplerDropped[] = "sampler.dropped";

// Symbol registry (core/symbol_registry.cc).
inline constexpr char kSymbolsRegistered[] = "symbols.registered";

// Fleet-monitoring daemon (monitord/monitor.cc) — the daemon's own health,
// registered in its private obs region and exported alongside the
// per-session metrics it scrapes.
inline constexpr char kMonitordSessionsAttached[] = "monitord.sessions.attached";
inline constexpr char kMonitordSessionsSeen[] = "monitord.sessions.seen";
inline constexpr char kMonitordSessionsGc[] = "monitord.sessions.gc";
inline constexpr char kMonitordScrapes[] = "monitord.scrapes";
inline constexpr char kMonitordScrapeLatencyUs[] = "monitord.scrape.latency_us";
inline constexpr char kMonitordFlameBuilds[] = "monitord.flame.builds";
// Per-session liveness marker the daemon synthesizes for every attached
// session (value 1, labeled {session,pid}) — present even when the
// session's own obs region has no metrics yet, so a scrape always names
// every session the daemon watches.
inline constexpr char kSessionUp[] = "session.up";

// Dynamic-name patterns (composed with a tid / shard / fault-point
// suffix at runtime).
inline constexpr char kAppThreadEntriesFmt[] = "app.thread.%llu.entries";
inline constexpr char kAppThreadOtherEntries[] = "app.thread.other.entries";
inline constexpr char kLogShardTailFmt[] = "log.shard.%zu.tail";
inline constexpr char kFaultArmPrefix[] = "fault.arm.";

// Every statically named metric above (the dynamic patterns excluded) —
// the Prometheus exporter's round-trip property test iterates this so a
// name added here without exporter coverage fails the suite.
inline constexpr const char* kAllStatic[] = {
    kWatchdogTicks,        kWatchdogStallEvents,  kWatchdogDriftEvents,
    kWatchdogBackjumpEvents,
    kCounterNsPerTickPico, kCounterStalled,       kCounterDrifting,
    kCounterReplicas,      kCounterReplicaPrimary, kCounterReplicaDrift,
    kCounterReplicaStalled, kCounterFailover,
    kLogTail,              kLogCapacity,          kLogOccupancyPermille,
    kLogEntryRatePerS,     kLogEntryRatePeakPerS, kLogDropped,
    kLogRingWraps,         kLogActive,            kLogShards,
    kLogTornTail,          kDrainLagEntries,      kDrainSpilledBytes,
    kDrainStall,           kEpcPageIns,           kEpcPageOuts,
    kEpcResidentPages,     kEpcResidentLimit,     kSamplerFrequencyHz,
    kSamplerSamples,       kSamplerDropped,       kSymbolsRegistered,
    kMonitordSessionsAttached, kMonitordSessionsSeen, kMonitordSessionsGc,
    kMonitordScrapes,      kMonitordScrapeLatencyUs, kMonitordFlameBuilds,
    kSessionUp,            kAppThreadOtherEntries,
};

}  // namespace teeperf::obs::metric_names
