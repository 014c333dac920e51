// Text report writers (DESIGN.md §12). Each report exists once, as a
// function of one aggregate:
//   - the table reports (method table, call graph, gprof flat profile,
//     diff, hottest stack, summary) read a MergeableProfile, so a
//     streamed session, an in-memory Profile (MergeableProfile::
//     from_profile) and a `.mprof` file or fleet merge all print alike;
//   - the path reports (call tree, bottom-up) read a session's path tree
//     (SessionTree, fold.h), from StreamAnalyzer::finish_tree() or
//     Profile::path_tree();
//   - the invocation-level reports read a Profile's Invocations.
// Table rows are keyed by symbolized name; rows that tie on their sort key
// are ordered by name.
#pragma once

#include <string>

#include "analyzer/mprof.h"
#include "analyzer/profile.h"

namespace teeperf::analyzer {

struct SessionTree;

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

// Per-thread rollup: invocations, inclusive root time, busiest method.
std::string thread_report(const Profile& profile);

// Machine-readable export of every invocation:
// method,tid,depth,start,end,inclusive,exclusive,calls_made,complete
std::string csv_export(const Profile& profile);

// Per-thread timeline of invocation intervals as CSV
// (tid,method,start,end,depth) sorted by start — importable into external
// trace viewers.
std::string timeline_csv(const Profile& profile);

// Chrome trace-event JSON ("X" complete events, ts/dur in µs): load in
// chrome://tracing or Perfetto. Uses the profile's tick→ns conversion.
std::string chrome_trace_json(const Profile& profile);

// Recorder-health section: folds the "<prefix>.health" snapshot and
// "<prefix>.events.jsonl" journal sidecars (written by the recorder's
// self-telemetry at dump time) into the report, with degradation warnings
// distilled from the event stream (counter stalls/drift, log saturation,
// torn tails, EPC pressure). Empty string when no sidecars exist, so
// callers can print it unconditionally.
std::string health_report(const std::string& prefix);

}  // namespace teeperf::analyzer
