// The three workloads. Each runs closed-loop rounds of one fixed size until
// the measuring budget is spent (at least kMinRounds), and reports medians
// over rounds. Untraced runs report the end-to-end metrics; traced runs
// report the per-layer ones (the same rounds, plus spans and the ledger).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "analyzer/stream.h"
#include "bench.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "core/profiler.h"
#include "drain/drainer.h"
#include "flamegraph/flamegraph.h"
#include "gen.h"
#include "tee/enclave.h"

namespace perfbench {

using teeperf::CounterMode;
using teeperf::Recorder;
using teeperf::RecorderOptions;
using teeperf::analyzer::MergeableProfile;
using teeperf::analyzer::StreamAnalyzer;

namespace {

constexpr u32 kAppThreads = 2;
constexpr int kMinRounds = 3;
constexpr const char* kMatchWord = "phoenix::string_match::match_word";

// Sizes of the string_match workloads: the seeded word list (small enough
// to stay cache-resident, so the phases time the probe rather than memory
// contention) is scanned `passes` times per timed phase.
constexpr u64 kWords = 1u << 16;
constexpr u64 kDensePasses = 128;       // 16.8M log entries per phase
constexpr u64 kDenseWindow = 1u << 20;  // ring entries
constexpr u64 kSpillPasses = 32;        // 4.2M log entries per phase
constexpr u64 kSpillWindow = 1u << 18;  // 1/16 of a phase's entries

void check_thread_budget(u32 busy, const char* what) {
  u32 hw = std::thread::hardware_concurrency();
  check(hw == 0 || busy <= hw,
        teeperf::str_format("%s needs %u busy threads, the machine has %u",
                            what, busy, hw));
}

double mib(u64 bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

u64 file_size(const std::string& path) {
  std::error_code ec;
  u64 n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

// Persistent closed-loop app threads. Persistent so each keeps its profiler
// thread id, and with it its log shard and telemetry cell, across rounds.
class AppThreads {
 public:
  explicit AppThreads(u32 n) {
    for (u32 i = 0; i < n; ++i) threads_.emplace_back([this, i] { loop(i); });
  }
  ~AppThreads() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
      ++generation_;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }
  AppThreads(const AppThreads&) = delete;
  AppThreads& operator=(const AppThreads&) = delete;

  // Runs job(i) on every thread; returns when all have finished. `poll`,
  // when set, runs on the calling thread about once a millisecond meanwhile.
  void run(const std::function<void(u32)>& job,
           const std::function<void()>& poll = {}) {
    std::unique_lock<std::mutex> lk(mu_);
    job_ = &job;
    running_ = static_cast<u32>(threads_.size());
    ++generation_;
    start_cv_.notify_all();
    auto done = [&] { return running_ == 0; };
    if (!poll) {
      done_cv_.wait(lk, done);
      return;
    }
    while (!done_cv_.wait_for(lk, std::chrono::milliseconds(1), done)) {
      lk.unlock();
      poll();
      lk.lock();
    }
  }

 private:
  void loop(u32 i) {
    u64 seen = 0;
    for (;;) {
      const std::function<void(u32)>* job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        start_cv_.wait(lk, [&] { return generation_ != seen; });
        seen = generation_;
        if (quit_) return;
        job = job_;
      }
      (*job)(i);
      std::lock_guard<std::mutex> lk(mu_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(u32)>* job_ = nullptr;
  u64 generation_ = 0;
  u32 running_ = 0;
  bool quit_ = false;
  std::vector<std::thread> threads_;  // last: started after the state above
};

struct AppRun {
  double seconds = 0.0;
  teeperf::phoenix::StringMatchResult total;
  u64 checksum() const { return total.checksum(); }
};

// The checksum `passes` scans must give, from a one-pass reference run.
u64 scaled_checksum(const AppRun& one, u64 passes) {
  teeperf::phoenix::StringMatchResult r;
  r.matches = one.total.matches * passes;
  r.words_scanned = one.total.words_scanned * passes;
  return r.checksum();
}

// The application: every app thread enters the enclave once and scans its
// slice `passes` times with the Phoenix string_match kernel.
AppRun run_app(AppThreads& threads, const StringMatchApp& app, u64 passes,
               teeperf::tee::Enclave& enclave,
               const std::function<void()>& poll = {}) {
  std::vector<teeperf::phoenix::StringMatchResult> per(app.slices.size());
  u64 t0 = now_ns();
  threads.run(
      [&](u32 i) {
        enclave.ecall([&] {
          for (u64 p = 0; p < passes; ++p) {
            auto r = teeperf::phoenix::run_string_match(app.slices[i], 1);
            per[i].matches += r.matches;
            per[i].words_scanned += r.words_scanned;
          }
        });
      },
      poll);
  AppRun out;
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  for (const auto& r : per) {
    out.total.matches += r.matches;
    out.total.words_scanned += r.words_scanned;
  }
  return out;
}

// Log entries one profiled phase must attempt: a call and a return per
// scoped call — string_match and its map worker once per pass and thread,
// match_word once per word.
u64 expected_events(const StringMatchApp& app, u64 passes) {
  return passes * (2 * 2 * app.slices.size() + 2 * app.words);
}

// The profile's outputs: the .mprof, the folded stacks and the flame graph.
// Returns the .mprof size.
u64 write_profile(Tracer& tr, const MergeableProfile& m, const std::string& prefix) {
  u64 bytes = 0;
  {
    Span s(tr, "mprof.save");
    std::string out = m.save();
    bytes = out.size();
    check(teeperf::write_file(prefix + ".mprof", out), "mprof write failed");
  }
  Span s(tr, "flamegraph.render");
  teeperf::flamegraph::FoldedStacks stacks(m.stacks.begin(), m.stacks.end());
  teeperf::flamegraph::SvgOptions svg;
  svg.ns_per_tick = m.ns_per_tick;
  check(teeperf::write_file(prefix + ".folded", m.folded()) &&
            teeperf::write_file(prefix + ".svg",
                                teeperf::flamegraph::render_svg(stacks, svg)),
        "flame graph write failed");
  return bytes;
}

MergeableProfile analyze(Tracer& tr, const std::string& prefix) {
  Span s(tr, "stream.analyze");
  std::string error;
  auto m = StreamAnalyzer::analyze(prefix, &error);
  check(m.has_value(), "stream analysis failed: " + error);
  return std::move(*m);
}

u64 method_count(const MergeableProfile& m, const std::string& name) {
  auto it = m.methods.find(name);
  return it == m.methods.end() ? 0 : it->second.count;
}

// Values of the per-layer metrics that are not span durations. A layer the
// workload does not call reports 0.
struct LayerValues {
  double window_fill = 0;
  double drain_entries_per_s = 0;
  double drain_bytes_per_entry = 0;
  std::vector<double> drain_lag;
  double dump_mb = 0;
  double stream_entries = 0;  // per analysis
  double distinct_paths = 0;
  double methods = 0;
  double mprof_bytes = 0;
  double merge_mb_per_s = 0;
  double dropped_ratio = 0;
  double profile_ready_s = 0;
};

void add_layer_metrics(const Tracer& tr, const LayerValues& v, Result* r) {
  r->add("log.window_fill", v.window_fill, "ratio");
  r->add("log.dropped_ratio", v.dropped_ratio, "ratio");
  r->add("drain.entries_per_s", v.drain_entries_per_s, "1/s");
  r->add("drain.bytes_per_entry", v.drain_bytes_per_entry, "B");
  r->add("drain.lag_entries_p50", median(v.drain_lag), "count");
  r->add("drain.lag_entries_max", max_of(v.drain_lag), "count");
  r->add("drain.final_s", tr.median_s("drain.final"), "s");
  r->add("recorder.create_s", tr.median_s("recorder.create"), "s");
  r->add("recorder.attach_s", tr.median_s("recorder.attach"), "s");
  r->add("recorder.dump_s", tr.median_s("recorder.dump"), "s");
  r->add("recorder.dump_mb", v.dump_mb, "MiB");
  double analyze_s = tr.median_s("stream.analyze");
  r->add("stream.analyze_s", analyze_s, "s");
  r->add("stream.entries_per_s", analyze_s > 0 ? v.stream_entries / analyze_s : 0,
         "1/s");
  r->add("stream.distinct_paths", v.distinct_paths, "count");
  r->add("stream.methods", v.methods, "count");
  r->add("mprof.save_s", tr.median_s("mprof.save"), "s");
  r->add("mprof.load_s", tr.median_s("mprof.load"), "s");
  r->add("mprof.merge_s", tr.median_s("mprof.merge"), "s");
  r->add("mprof.merge_mb_per_s", v.merge_mb_per_s, "MiB/s");
  r->add("mprof.bytes", v.mprof_bytes, "B");
  r->add("flamegraph.render_s", tr.median_s("flamegraph.render"), "s");
  r->add("bench.profile_ready_s", v.profile_ready_s, "s");
}

// Samples shared by the end-to-end metrics of every workload.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> bare_s;       // the unprofiled (or bare-scan) phase
  std::vector<double> profiled_s;   // the same work, profiled (or analyzed)
  std::vector<double> events_per_s;
  std::vector<double> profile_ready_s;
  double peak_rss_mb = 0;

  void add_to(Result* r) const {
    r->add("setup_s", median(setup_s), "s");
    // A ratio of medians: the two phases' noise does not compound.
    r->add("overhead_x", median(profiled_s) / median(bare_s), "x");
    r->add("events_per_s", median(events_per_s), "1/s");
    r->add("profile_ready_s", median(profile_ready_s), "s");
    r->add("analyze_peak_rss_mb", peak_rss_mb, "MiB");
  }
};

// Progress on stderr: one line per round with its end-to-end samples.
void log_round(int round, const EndToEnd& e) {
  std::fprintf(stderr,
               "round %d: setup_s %.6f overhead_x %.4f events_per_s %.0f "
               "profile_ready_s %.4f\n",
               round, e.setup_s.empty() ? 0.0 : e.setup_s.back(),
               e.profiled_s.back() / e.bare_s.back(), e.events_per_s.back(),
               e.profile_ready_s.back());
}

// Round loop: at least kMinRounds, then until the budget is spent.
template <typename F>
void for_rounds(const Options& opt, F&& round) {
  u64 t0 = now_ns();
  for (int i = 0;; ++i) {
    double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
    if (i >= kMinRounds && elapsed >= opt.seconds) break;
    std::string dir = opt.work_dir + teeperf::str_format("/round-%d", i);
    check(teeperf::make_dirs(dir), "cannot create " + dir);
    round(i, dir + "/session");
    teeperf::remove_tree(dir);  // chunk files, dumps, profiles
  }
}

}  // namespace

// ---- probe_dense ------------------------------------------------------------

Result run_probe_dense(const Options& opt, Tracer& tr) {
  check_thread_budget(kAppThreads + 1, "probe_dense (app + software counter)");
  StringMatchApp app = make_string_match(kWords, kAppThreads, opt.seed);
  const u64 events = expected_events(app, kDensePasses);
  AppThreads threads(kAppThreads);
  teeperf::tee::Enclave enclave;
  // Warm-up, and the reference every bare and profiled phase must match.
  const u64 want = scaled_checksum(run_app(threads, app, 1, enclave), kDensePasses);

  Result r;
  EndToEnd e2e;
  LayerValues lv;
  std::vector<double> fill;
  for_rounds(opt, [&](int round, const std::string& prefix) {
    AppRun bare;
    {
      Span s(tr, "app.bare");
      bare = run_app(threads, app, kDensePasses, enclave);
    }
    check(bare.checksum() == want, "bare checksum differs from the reference");

    RecorderOptions ro;
    ro.max_entries = kDenseWindow;
    ro.ring_buffer = true;
    ro.counter_mode = CounterMode::kSoftware;
    ro.publish_session = false;
    Span setup(tr, "bench.setup");
    std::unique_ptr<Recorder> rec;
    {
      Span s(tr, "recorder.create");
      rec = Recorder::create(ro);
    }
    check(rec != nullptr, "Recorder::create failed");
    {
      Span s(tr, "recorder.attach");
      check(rec->attach(), "Recorder::attach failed");
    }
    e2e.setup_s.push_back(setup.stop());

    AppRun prof;
    {
      Span s(tr, "app.profiled");
      prof = run_app(threads, app, kDensePasses, enclave);
    }
    Span ready(tr, "bench.profile_ready");
    rec->detach();
    Recorder::Stats st = rec->stats();
    {
      Span s(tr, "recorder.dump");
      check(rec->dump(prefix), "Recorder::dump failed");
    }
    MergeableProfile m = analyze(tr, prefix);
    u64 mprof_bytes = write_profile(tr, m, prefix);
    e2e.profile_ready_s.push_back(ready.stop());

    check(prof.checksum() == want, "profiled and bare checksums differ");
    check(prof.total.words_scanned == app.words * kDensePasses,
          "words scanned != words x passes");
    // Every probe is attempted once: match_word calls = words x passes.
    check(st.attempted == events,
          teeperf::str_format("attempted %llu log entries, expected %llu",
                              static_cast<unsigned long long>(st.attempted),
                              static_cast<unsigned long long>(events)));
    check(m.stats.entries == st.entries, "analyzed entries != stored window");
    r.attempted += st.attempted;
    r.failed += st.dropped;  // ring overwrites are the mode's contract

    e2e.bare_s.push_back(bare.seconds);
    e2e.profiled_s.push_back(prof.seconds);
    e2e.events_per_s.push_back(static_cast<double>(st.attempted) / prof.seconds);
    log_round(round, e2e);
    fill.push_back(static_cast<double>(st.entries) / static_cast<double>(st.capacity));
    lv.dump_mb = mib(file_size(prefix + ".log"));
    lv.stream_entries = static_cast<double>(m.stats.entries);
    lv.distinct_paths = static_cast<double>(m.stacks.size());
    lv.methods = static_cast<double>(m.methods.size());
    lv.mprof_bytes = static_cast<double>(mprof_bytes);
    rec.reset();

    if (round == 0 && !opt.trace) {
      u64 entries = 0;
      e2e.peak_rss_mb = analysis_peak_rss_mb(opt, prefix, &entries);
      check(entries == st.entries, "RSS probe analyzed a different entry count");
    }
  });

  if (!opt.trace) {
    e2e.add_to(&r);
  } else {
    lv.window_fill = median(fill);
    lv.dropped_ratio = dropped_ratio(r.failed, r.attempted);
    lv.profile_ready_s = median(e2e.profile_ready_s);
    add_layer_metrics(tr, lv, &r);
  }
  return r;
}

// ---- spill_stream -----------------------------------------------------------

Result run_spill_stream(const Options& opt, Tracer& tr) {
  check_thread_budget(kAppThreads + 1, "spill_stream (app + drainer)");
  StringMatchApp app = make_string_match(kWords, kAppThreads, opt.seed);
  const u64 events = expected_events(app, kSpillPasses);
  AppThreads threads(kAppThreads);
  teeperf::tee::Enclave enclave;
  // Warm-up, and the reference every bare and profiled phase must match.
  const u64 want = scaled_checksum(run_app(threads, app, 1, enclave), kSpillPasses);

  Result r;
  EndToEnd e2e;
  LayerValues lv;
  std::vector<double> drain_rate;
  for_rounds(opt, [&](int round, const std::string& prefix) {
    AppRun bare;
    {
      Span s(tr, "app.bare");
      bare = run_app(threads, app, kSpillPasses, enclave);
    }
    check(bare.checksum() == want, "bare checksum differs from the reference");

    RecorderOptions ro;
    ro.max_entries = kSpillWindow;
    ro.shards = 4;
    ro.spill_drain = true;
    ro.counter_mode = CounterMode::kTsc;
    ro.publish_session = false;
    Span setup(tr, "bench.setup");
    std::unique_ptr<Recorder> rec;
    {
      Span s(tr, "recorder.create");
      rec = Recorder::create(ro);
    }
    check(rec != nullptr, "Recorder::create failed");
    teeperf::drain::DrainerOptions dopt;
    dopt.prefix = prefix;
    auto drainer = std::make_unique<teeperf::drain::Drainer>(&rec->log(), dopt);
    {
      Span s(tr, "recorder.attach");
      check(rec->attach(), "Recorder::attach failed");
    }
    {
      Span s(tr, "drain.start");
      check(drainer->start(), "Drainer::start failed");
    }
    e2e.setup_s.push_back(setup.stop());

    AppRun prof;
    {
      Span s(tr, "app.profiled");
      std::function<void()> sample;
      if (opt.trace) {
        sample = [&] {
          lv.drain_lag.push_back(static_cast<double>(drainer->stats().lag_entries));
        };
      }
      prof = run_app(threads, app, kSpillPasses, enclave, sample);
    }
    u64 drained_live = drainer->stats().drained_entries;
    Span ready(tr, "bench.profile_ready");
    rec->detach();
    {
      Span s(tr, "drain.final");
      check(drainer->final_drain(), "final drain failed");
    }
    teeperf::drain::Drainer::Stats ds = drainer->stats();
    drainer.reset();
    Recorder::Stats st = rec->stats();
    {
      Span s(tr, "recorder.dump");
      check(rec->dump(prefix), "Recorder::dump failed");
    }
    MergeableProfile m = analyze(tr, prefix);
    u64 mprof_bytes = write_profile(tr, m, prefix);
    e2e.profile_ready_s.push_back(ready.stop());

    check(prof.checksum() == want, "profiled and bare checksums differ");
    check(st.attempted == events, "attempted entries != calls and returns made");
    check(st.dropped == 0, "spill session dropped or force-advanced entries");
    check(m.stats.entries == st.attempted,
          teeperf::str_format("analyzed %llu entries, attempted %llu",
                              static_cast<unsigned long long>(m.stats.entries),
                              static_cast<unsigned long long>(st.attempted)));
    check(method_count(m, kMatchWord) == app.words * kSpillPasses,
          "match_word count != words x passes");
    r.attempted += st.attempted;
    r.failed += st.dropped;

    e2e.bare_s.push_back(bare.seconds);
    e2e.profiled_s.push_back(prof.seconds);
    e2e.events_per_s.push_back(static_cast<double>(st.attempted) / prof.seconds);
    log_round(round, e2e);
    drain_rate.push_back(static_cast<double>(drained_live) / prof.seconds);
    lv.drain_bytes_per_entry = static_cast<double>(ds.spilled_bytes) /
                               static_cast<double>(ds.drained_entries);
    lv.dump_mb = mib(file_size(prefix + ".log"));
    lv.stream_entries = static_cast<double>(m.stats.entries);
    lv.distinct_paths = static_cast<double>(m.stacks.size());
    lv.methods = static_cast<double>(m.methods.size());
    lv.mprof_bytes = static_cast<double>(mprof_bytes);
    rec.reset();

    if (round == 0 && !opt.trace) {
      u64 entries = 0;
      e2e.peak_rss_mb = analysis_peak_rss_mb(opt, prefix, &entries);
      check(entries == st.attempted, "RSS probe analyzed a different entry count");
    }
  });

  if (!opt.trace) {
    e2e.add_to(&r);
  } else {
    lv.drain_entries_per_s = median(drain_rate);
    lv.dropped_ratio = dropped_ratio(r.failed, r.attempted);
    lv.profile_ready_s = median(e2e.profile_ready_s);
    add_layer_metrics(tr, lv, &r);
  }
  return r;
}

// ---- analyze_merge ------------------------------------------------------------

Result run_analyze_merge(const Options& opt, Tracer& tr) {
  // No thread budget to check: the analyzer's only busy threads are its own
  // pool, at most one per core.
  MergeShape shape;
  MergeInputs in = make_merge_inputs(shape, opt.seed);
  const std::string prefix = opt.work_dir + "/session";
  std::vector<std::string> parts;
  for (u32 p = 0; p < shape.parts; ++p) {
    parts.push_back(opt.work_dir + teeperf::str_format("/part-%u.mprof", p));
  }
  u64 part_entries = 0;
  for (const auto& p : in.parts) part_entries += p.stats.entries;

  Result r;
  EndToEnd e2e;
  LayerValues lv;
  // Set-up: the inputs written through the profiler's serializers, three
  // times (the same bytes each time).
  for (int i = 0; i < 3; ++i) {
    Span s(tr, "bench.setup");
    check(write_merge_inputs(in, prefix, parts), "writing the inputs failed");
    e2e.setup_s.push_back(s.stop());
  }

  std::vector<double> merge_rate;
  for_rounds(opt, [&](int round, const std::string& out) {
    double scan_s = 0;
    {
      Span s(tr, "chunk.scan");
      u64 bytes = 0;
      auto scan = teeperf::drain::for_each_chunk(
          prefix, [&](u32, std::string_view payload) {
            bytes += payload.size();
            return true;
          });
      scan_s = s.stop();
      check(scan == teeperf::drain::ChunkScan::kDone && bytes > 0, "chunk scan failed");
    }

    Span ready(tr, "bench.profile_ready");
    double analyze_s = 0;
    MergeableProfile m;
    {
      Span s(tr, "stream.analyze");
      std::string error;
      auto got = StreamAnalyzer::analyze_spill(prefix, &error);
      analyze_s = s.stop();
      check(got.has_value(), "stream analysis failed: " + error);
      m = std::move(*got);
    }
    u64 mprof_bytes = 0;
    {
      Span s(tr, "mprof.save");
      std::string bytes = m.save();
      mprof_bytes = bytes.size();
      check(teeperf::write_file(out + ".mprof", bytes), "mprof write failed");
    }
    std::vector<MergeableProfile> loaded;
    u64 loaded_bytes = 0;
    double load_s = 0;
    {
      Span s(tr, "mprof.load");
      for (const std::string& path : parts) {
        std::string error;
        auto p = MergeableProfile::load(path, &error);
        check(p.has_value(), "mprof load failed: " + error);
        loaded.push_back(std::move(*p));
      }
      load_s = s.stop();
      for (const std::string& path : parts) loaded_bytes += file_size(path);
    }
    MergeableProfile merged = m;
    double merge_s = 0;
    {
      Span s(tr, "mprof.merge");
      for (const auto& p : loaded) check(merged.merge(p), "mprof merge overflowed");
      merge_s = s.stop();
    }
    check(teeperf::write_file(out + ".fleet.mprof", merged.save()),
          "merged mprof write failed");
    {
      Span s(tr, "flamegraph.render");
      teeperf::flamegraph::FoldedStacks stacks(merged.stacks.begin(),
                                               merged.stacks.end());
      teeperf::flamegraph::SvgOptions svg;
      svg.ns_per_tick = merged.ns_per_tick;
      check(teeperf::write_file(out + ".folded", merged.folded()) &&
                teeperf::write_file(out + ".svg",
                                    teeperf::flamegraph::render_svg(stacks, svg)),
            "flame graph write failed");
    }
    e2e.profile_ready_s.push_back(ready.stop());

    // Output checks: exact entry and call accounting, and the merge algebra.
    check(m.stats.entries == in.entries, "analyzed entries != generated entries");
    u64 calls = 0;
    for (const auto& [name, mm] : m.methods) calls += mm.count;
    check(calls == in.calls, "analyzed calls != generated calls");
    MergeableProfile reversed;
    for (auto it = loaded.rbegin(); it != loaded.rend(); ++it) {
      check(reversed.merge(*it), "reverse merge overflowed");
    }
    check(reversed.merge(m), "reverse merge overflowed");
    check(reversed.save() == merged.save(),
          "reverse-order merge is not byte-identical");
    check(merged.stats.entries == in.entries + part_entries,
          "merged entries != sum of the parts");
    for (const auto& [name, mm] : merged.methods) {
      u64 sum = method_count(m, name);
      for (const auto& p : loaded) sum += method_count(p, name);
      check(mm.count == sum, "merged count != sum of the parts for " + name);
    }
    r.attempted += in.entries;

    e2e.bare_s.push_back(scan_s);
    e2e.profiled_s.push_back(analyze_s);
    e2e.events_per_s.push_back(static_cast<double>(in.entries) / analyze_s);
    log_round(round, e2e);
    merge_rate.push_back(mib(loaded_bytes) / (load_s + merge_s));
    lv.stream_entries = static_cast<double>(m.stats.entries);
    lv.distinct_paths = static_cast<double>(m.stacks.size());
    lv.methods = static_cast<double>(m.methods.size());
    lv.mprof_bytes = static_cast<double>(mprof_bytes);

    if (round == 0 && !opt.trace) {
      u64 entries = 0;
      e2e.peak_rss_mb = analysis_peak_rss_mb(opt, prefix, &entries);
      check(entries == in.entries, "RSS probe analyzed a different entry count");
    }
  });

  if (!opt.trace) {
    e2e.add_to(&r);
  } else {
    lv.merge_mb_per_s = median(merge_rate);
    lv.profile_ready_s = median(e2e.profile_ready_s);
    add_layer_metrics(tr, lv, &r);
  }
  return r;
}

}  // namespace perfbench
