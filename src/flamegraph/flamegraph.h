// Stage #4: the visualizer. The paper feeds the analyzer's output to Brendan
// Gregg's flamegraph.pl; this module implements both halves natively:
//   - the *folded stacks* text format that flamegraph.pl consumes
//     ("a;b;c 1234" per line; MergeableProfile::folded() writes it), so the
//     original tooling still works, and
//   - a self-contained SVG renderer producing the familiar flame graph
//     (width ∝ time, one row per stack depth, warm palette, per-frame
//     tooltips) with no external dependency.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/profile.h"
#include "common/types.h"

namespace teeperf::flamegraph {

using FoldedStacks = std::vector<std::pair<std::string, u64>>;

// Parses flamegraph.pl input ("a;b;c 1234" per line; round-trip tested
// against MergeableProfile::folded()).
FoldedStacks parse_folded_text(const std::string& text);

struct SvgOptions {
  int width = 1200;
  int frame_height = 16;
  std::string title = "Flame Graph";
  // Frames narrower than this many pixels are dropped (standard flamegraph
  // behaviour; keeps the SVG small for deep noisy profiles).
  double min_width_px = 0.1;
  // Calibrated tick length. When > 0, frame tooltips carry real time (ms)
  // next to the raw tick count; render_profile_svg fills this in from the
  // aggregate's tick rate (0 = uncalibrated, ticks only).
  double ns_per_tick = 0.0;
};

// Renders folded stacks to a standalone SVG document.
std::string render_svg(const FoldedStacks& stacks, const SvgOptions& options = {});

// Convenience: an aggregate's folded stacks → SVG in one step.
std::string render_profile_svg(const analyzer::MergeableProfile& m,
                               const SvgOptions& options = {});

// The merged frame tree the renderer lays out; exposed for tests and for
// programmatic inspection ("what fraction of total is frame X").
struct Frame {
  std::string name;
  u64 value = 0;       // total ticks under this frame (self + children)
  u64 self = 0;        // ticks attributed directly to this frame
  std::vector<Frame> children;  // ordered by name for deterministic output
};

Frame build_frame_tree(const FoldedStacks& stacks);

// --- timeline view (the second visualizer) -----------------------------------
// Per-thread swim lanes with one rectangle per invocation, positioned by
// counter value and stacked by call depth — a self-contained SVG trace
// viewer for seeing *when* things ran, complementing the flame graph's
// *how much* view.
struct TimelineOptions {
  int width = 1400;
  int row_height = 13;
  std::string title = "Timeline";
  // Invocations narrower than this many pixels are skipped.
  double min_width_px = 0.3;
};

std::string render_timeline_svg(const analyzer::Profile& profile,
                                const TimelineOptions& options = {});

// Finds a frame by name anywhere in the tree (first match, depth-first);
// returns nullptr if absent.
const Frame* find_frame(const Frame& root, const std::string& name);

// Fraction (0..1) of the root's total attributed to frames named `name`
// (summed over all occurrences, self + children).
double frame_fraction(const Frame& root, const std::string& name);

}  // namespace teeperf::flamegraph
