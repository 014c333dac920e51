// Shared plumbing of the repository benchmark: run options, output checks,
// metrics, spans, and the separate-process peak-RSS probe.
//
// The benchmark drives the profiler only through its public headers and
// times each layer from outside, around the calls it makes into that layer.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace perfbench {

using teeperf::u32;
using teeperf::u64;
using teeperf::usize;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;  // measuring budget for the timed rounds
  bool trace = false;     // record spans and run the probe ledger
  std::string work_dir;   // per-run scratch directory, removed at exit
  std::string self_exe;   // this binary, re-executed for the RSS probe
};

// A failed output check. It fails the run; it is never reported as a number.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void check(bool ok, const std::string& what);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  u64 attempted = 0;  // log entries the pipeline was asked to carry
  u64 failed = 0;     // of those, lost: dropped or force-advanced
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Metric names are letters, digits, '_', '.' and '-', starting with a letter
// or digit, at most 64 characters.
bool valid_metric_name(std::string_view name);

// The failure share of a session: entries lost (dropped, including spill
// force-advances) over entries attempted. Ring overwrites are the ring's
// contract and are not passed in.
double dropped_ratio(u64 lost, u64 attempted);

double median(std::vector<double> xs);
double max_of(const std::vector<double>& xs);

// One line of JSON: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, const Result& r);

// ---- spans ------------------------------------------------------------------

// Spans around the benchmark's calls into each layer, kept in memory and
// written out once at exit. Span timing is always taken (the end-to-end
// metrics use it); recording happens only when the tracer is enabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Durations (seconds) of every recorded span with this name.
  std::vector<double> durations(std::string_view name) const;
  // Median of durations(name), 0 when the layer was never called.
  double median_s(std::string_view name) const;

  // JSON array of {id, parent, name, start_ns, end_ns}.
  std::string to_json() const;

 private:
  friend class Span;
  struct Rec {
    std::string name;
    int parent = -1;
    u64 start_ns = 0;
    u64 end_ns = 0;
  };
  bool enabled_;
  std::vector<Rec> spans_;
  std::vector<int> open_;  // stack of open span ids (one thread records)
};

class Span {
 public:
  Span(Tracer& tracer, std::string name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span (idempotent); returns its duration in seconds.
  double stop();

 private:
  Tracer& tracer_;
  int id_ = -1;
  u64 start_ns_ = 0;
  double seconds_ = -1.0;
};

u64 now_ns();

// ---- separate-process analysis ----------------------------------------------

// Runs StreamAnalyzer::analyze(prefix) in a fresh exec of this binary and
// returns that process's peak RSS in MiB; *entries gets the analyzed entry
// count. Exec (not a bare fork) keeps the parent's inputs out of the figure.
double analysis_peak_rss_mb(const Options& opt, const std::string& prefix,
                            u64* entries);
// The child side: prints the analyzed entry count. Returns the exit code.
int rss_child_main(const std::string& prefix);

// ---- workloads ----------------------------------------------------------------

Result run_probe_dense(const Options& opt, Tracer& tr);
Result run_spill_stream(const Options& opt, Tracer& tr);
Result run_analyze_merge(const Options& opt, Tracer& tr);

// The probe ledger (traced runs only): per-stage probe, counter and batch
// costs on one thread, every session ringed so nothing drops.
void run_probe_ledger(Tracer& tr, Result* out);

}  // namespace perfbench
