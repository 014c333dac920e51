// Text report writers (DESIGN.md §12). Each report exists once, as a
// function of one aggregate:
//   - the table reports (method table, call graph, gprof flat profile,
//     diff, hottest stack, summary) read a MergeableProfile, so a
//     streamed session, a live log and a `.mprof` file or fleet merge all
//     print alike;
//   - the path reports (call tree, bottom-up) read a session's path tree
//     (SessionTree, fold.h), from StreamAnalyzer::finish_tree();
//   - the row reports take rows one at a time, as the invocation stream
//     (fold.h) closes them or as an InvocationTable holds them, and keep
//     only what their output needs; the timeline reads a whole table.
// Table rows are keyed by symbolized name; rows that tie on their sort key
// are ordered by name.
#pragma once

#include <map>
#include <string>
#include <unordered_map>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/query.h"

namespace teeperf::analyzer {

// Sorted method table: exclusive/inclusive time (ticks and, when the tick
// rate is known, milliseconds), call counts, share of exclusive time.
std::string method_report(const MergeableProfile& m, usize limit = 30);

// Caller→callee edges sorted by call count.
std::string call_graph_report(const MergeableProfile& m, usize limit = 30);

// gprof-style flat profile (the related-work §V comparison): %time,
// cumulative/self seconds, calls, per-call costs, name.
std::string gprof_flat_report(const MergeableProfile& m, usize limit = 30);

// Compares two profiles of the same workload (e.g. before/after an
// optimization, the §IV-C workflow): per-method exclusive time side by
// side with the delta, sorted by absolute delta.
std::string diff_report(const MergeableProfile& before,
                        const MergeableProfile& after, usize limit = 30);

// The single most expensive stack (by exclusive ticks attributed to that
// exact path) — "the most frequent code path" the paper uses flame graphs
// to find, as a direct query. The first such path in name order; an empty
// path when there are no stacks.
std::string hottest_report(const MergeableProfile& m);

// One-line health summary of an aggregate — sessions folded in, entries,
// threads, reconstruction defects, distinct methods/edges/stacks — worth
// printing before trusting any numbers.
std::string mprof_summary(const MergeableProfile& m);

// Top-down call tree: the merged dynamic call tree with inclusive time and
// percentage per node, indented — the textual twin of the flame graph.
// Nodes below `min_fraction` of the total are folded into "(other)".
std::string call_tree_report(const SessionTree& t, double min_fraction = 0.005);

// Bottom-up view: for each of the top `leaf_limit` methods by exclusive
// time, the callers that reach it with their share — perf report's
// inverted call graph, for answering "who is responsible for the time in
// X" when X is called from many places.
std::string bottom_up_report(const SessionTree& t, usize leaf_limit = 10,
                             usize callers_per_leaf = 5);

// Per-thread rollup, fed row by row: invocations, inclusive root time,
// busiest method (by exclusive time; the smallest id on a tie).
class ThreadRollup {
 public:
  void add(const Invocation& row);
  std::string report(const std::unordered_map<u64, std::string>& symbols,
                     double ns_per_tick) const;

 private:
  struct Thread {
    u64 invocations = 0;
    u64 root_inclusive = 0;
    std::map<u64, u64> exclusive_by_method;
  };
  std::map<u64, Thread> threads_;
};

// Machine-readable export of rows as they arrive, one line each after a
// header: method,tid,depth,start,end,inclusive,exclusive,calls_made,complete
// `text` holds what is written and not yet taken; a caller may move it out
// at any point.
class CsvRows {
 public:
  explicit CsvRows(const std::unordered_map<u64, std::string>& symbols)
      : name_(symbols) {}
  void add(const Invocation& row);
  void finish() {}
  std::string text = "method,tid,depth,start,end,inclusive,exclusive,calls_made,complete\n";

 private:
  MethodNames name_;
};

// Chrome trace-event JSON ("X" complete events, ts/dur in µs) of rows as
// they arrive: load in chrome://tracing or Perfetto. Times convert at
// `ns_per_tick` (ticks when 0); finish() closes the array. `text` as in
// CsvRows.
class ChromeTrace {
 public:
  ChromeTrace(const std::unordered_map<u64, std::string>& symbols, double ns_per_tick)
      : name_(symbols), ns_per_tick_(ns_per_tick) {}
  void add(const Invocation& row);
  void finish() { text += "\n]\n"; }
  std::string text = "[\n";

 private:
  MethodNames name_;
  double ns_per_tick_;
  bool first_ = true;
};

// Per-thread timeline of a table's rows as CSV (tid,method,start,end,depth)
// sorted by start — importable into external trace viewers.
std::string timeline_csv(const InvocationTable& table);

// Recorder-health section: folds the "<prefix>.health" snapshot and
// "<prefix>.events.jsonl" journal sidecars (written by the recorder's
// self-telemetry at dump time) into the report, with degradation warnings
// distilled from the event stream (counter stalls/drift, log saturation,
// torn tails, EPC pressure). Empty string when no sidecars exist, so
// callers can print it unconditionally.
std::string health_report(const std::string& prefix);

}  // namespace teeperf::analyzer
