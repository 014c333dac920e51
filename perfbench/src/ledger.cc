// The probe ledger: what one instrumented scope costs at each stage of the
// probe, on one thread, plus the counter read and the log batch beneath it.
//
// Every ledger session is a ring with one shard, so nothing can drop, and
// each one checks dropped == 0 and the exact attempted count — a ledger
// row that silently timed the drop path would be a bug.
#include <memory>

#include "bench.h"
#include "common/stringutil.h"
#include "core/profiler.h"

namespace perfbench {

using teeperf::CounterMode;
using teeperf::Recorder;
using teeperf::RecorderOptions;
using teeperf::Scope;
using teeperf::SymbolRegistry;

namespace {

constexpr u64 kScopes = 200000;    // scopes per timed loop
constexpr u64 kReads = 2000000;    // counter reads / batch records per loop
constexpr int kReps = 5;           // the reported figure is the median

double ns_per(u64 t0, u64 n) {
  return static_cast<double>(now_ns() - t0) / static_cast<double>(n);
}

// Time per scope (enter + exit) of n scopes nested in one outer scope, so the
// inner ones take the batched path that instrumented code takes.
double time_scopes(u64 n) {
  static const u64 outer = SymbolRegistry::instance().intern("perfbench::ledger");
  static const u64 inner = SymbolRegistry::instance().intern("perfbench::ledger::scope");
  u64 t0 = now_ns();
  {
    Scope o(outer);
    for (u64 i = 0; i < n; ++i) {
      Scope s(inner);
      asm volatile("" ::: "memory");
    }
  }
  return ns_per(t0, n);
}

enum class Stage { kDetached, kInactive, kFiltered, kRecorded };

struct Row {
  const char* metric;
  Stage stage;
  CounterMode mode;
  bool telemetry;
};

RecorderOptions ledger_options(CounterMode mode, bool telemetry) {
  RecorderOptions ro;
  ro.max_entries = 1u << 16;
  ro.shards = 1;
  ro.ring_buffer = true;
  ro.counter_mode = mode;
  ro.telemetry = telemetry;
  ro.publish_session = false;
  return ro;
}

double run_row(const Row& row, u64* attempted) {
  std::vector<double> reps;
  // Filtered: an allowlist that holds neither ledger scope.
  teeperf::Filter allow_other(teeperf::Filter::Mode::kAllowlist);
  allow_other.add_name("perfbench::ledger::other");
  for (int rep = 0; rep < kReps; ++rep) {
    if (row.stage == Stage::kDetached) {
      check(!teeperf::runtime::attached(), "ledger: a session is attached");
      reps.push_back(time_scopes(kScopes));
      continue;
    }
    RecorderOptions ro = ledger_options(row.mode, row.telemetry);
    ro.start_active = row.stage != Stage::kInactive;
    if (row.stage == Stage::kFiltered) ro.filter = &allow_other;
    auto rec = Recorder::create(ro);
    check(rec && rec->attach(), "ledger: recorder setup failed");
    reps.push_back(time_scopes(kScopes));
    rec->detach();
    Recorder::Stats st = rec->stats();
    u64 want = row.stage == Stage::kRecorded ? 2 * kScopes + 2 : 0;
    check(st.dropped == 0, teeperf::str_format("ledger %s dropped entries", row.metric));
    check(st.attempted == want,
          teeperf::str_format("ledger %s attempted %llu entries, expected %llu",
                              row.metric,
                              static_cast<unsigned long long>(st.attempted),
                              static_cast<unsigned long long>(want)));
    *attempted += st.attempted;
  }
  return median(reps);
}

double time_counter(CounterMode mode) {
  auto rec = Recorder::create(ledger_options(mode, false));
  check(rec && rec->attach(), "ledger: recorder setup failed");
  const teeperf::LogHeader* header = rec->log().header();
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    u64 sink = 0;
    u64 t0 = now_ns();
    for (u64 i = 0; i < kReads; ++i) sink += teeperf::read_counter(mode, header);
    reps.push_back(ns_per(t0, kReads));
    asm volatile("" : : "r"(sink));
  }
  rec->detach();
  return median(reps);
}

// A bare one-shard ring log in local memory, for the batch and publish rows.
struct LocalLog {
  std::vector<teeperf::u8> buf;
  teeperf::ProfileLog log;
  LocalLog() : buf(teeperf::ProfileLog::bytes_for(1u << 16, 1)) {
    check(log.init(buf.data(), buf.size(), 1,
                   teeperf::log_flags::kActive | teeperf::log_flags::kMultithread |
                       teeperf::log_flags::kRingBuffer,
                   1),
          "ledger: log init failed");
  }
};

double time_batch_record(u64* attempted) {
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    LocalLog l;
    teeperf::LogBatch batch;
    u64 t0 = now_ns();
    for (u64 i = 0; i < kReads; ++i) {
      batch.record(l.log,
                   (i & 1) ? teeperf::EventKind::kReturn : teeperf::EventKind::kCall,
                   0x1000, 0, i);
    }
    batch.flush(l.log);
    reps.push_back(ns_per(t0, kReads));
    check(l.log.dropped() == 0 && l.log.attempted() == kReads,
          "ledger: batch record lost entries");
    *attempted += kReads;
  }
  return median(reps);
}

double time_append_batch(u64* attempted) {
  constexpr teeperf::u32 kRun = teeperf::LogBatch::kCapacity;
  teeperf::LogEntry run[kRun] = {};
  for (teeperf::u32 i = 0; i < kRun; ++i) {
    run[i].kind_and_counter = teeperf::LogEntry::pack(teeperf::EventKind::kCall, i + 1);
    run[i].addr = 0x1000;
  }
  std::vector<double> reps;
  for (int rep = 0; rep < kReps; ++rep) {
    LocalLog l;
    u64 runs = kReads / kRun;
    u64 t0 = now_ns();
    for (u64 i = 0; i < runs; ++i) l.log.append_batch(run, kRun, 0);
    reps.push_back(ns_per(t0, runs * kRun));
    check(l.log.dropped() == 0 && l.log.attempted() == runs * kRun,
          "ledger: append_batch lost entries");
    *attempted += runs * kRun;
  }
  return median(reps);
}

}  // namespace

void run_probe_ledger(Tracer& tr, Result* out) {
  Span ledger(tr, "ledger");
  const Row rows[] = {
      {"probe.detached_ns", Stage::kDetached, CounterMode::kTsc, true},
      {"probe.inactive_ns", Stage::kInactive, CounterMode::kTsc, true},
      {"probe.filtered_ns", Stage::kFiltered, CounterMode::kTsc, true},
      {"probe.recorded_tsc_ns", Stage::kRecorded, CounterMode::kTsc, true},
      {"probe.recorded_sw_ns", Stage::kRecorded, CounterMode::kSoftware, true},
      {"probe.recorded_sw_notelemetry_ns", Stage::kRecorded, CounterMode::kSoftware,
       false},
  };
  u64 attempted = 0;
  for (const Row& row : rows) {
    Span s(tr, row.metric);
    out->add(row.metric, run_row(row, &attempted), "ns");
  }
  {
    Span s(tr, "counter.read");
    out->add("counter.read_tsc_ns", time_counter(CounterMode::kTsc), "ns");
    out->add("counter.read_sw_ns", time_counter(CounterMode::kSoftware), "ns");
  }
  {
    Span s(tr, "log.batch");
    out->add("log.batch_record_ns", time_batch_record(&attempted), "ns");
    out->add("log.append_batch_ns_per_entry", time_append_batch(&attempted), "ns");
  }
  out->add("probe.ledger_attempted", static_cast<double>(attempted), "count");
}

}  // namespace perfbench
