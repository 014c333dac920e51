#include "flamegraph/flamegraph.h"

#include <algorithm>
#include <charconv>
#include <map>

#include "common/stringutil.h"

namespace teeperf::flamegraph {

FoldedStacks parse_folded_text(const std::string& text) {
  FoldedStacks out;
  for (std::string_view line : split(text, '\n')) {
    if (line.empty()) continue;
    usize space = line.rfind(' ');
    if (space == std::string_view::npos) continue;
    u64 value = 0;
    auto tail = line.substr(space + 1);
    auto [p, ec] = std::from_chars(tail.data(), tail.data() + tail.size(), value);
    if (ec != std::errc{} || p != tail.data() + tail.size()) continue;
    out.emplace_back(std::string(line.substr(0, space)), value);
  }
  return out;
}

Frame build_frame_tree(const FoldedStacks& stacks) {
  Frame root;
  root.name = "all";
  for (const auto& [path, value] : stacks) {
    Frame* cur = &root;
    root.value += value;
    for (std::string_view part : split(path, ';')) {
      auto it = std::find_if(cur->children.begin(), cur->children.end(),
                             [&](const Frame& f) { return f.name == part; });
      if (it == cur->children.end()) {
        Frame f;
        f.name = std::string(part);
        // Keep children ordered by name: deterministic layout regardless of
        // input order.
        auto pos = std::lower_bound(
            cur->children.begin(), cur->children.end(), f.name,
            [](const Frame& a, const std::string& n) { return a.name < n; });
        it = cur->children.insert(pos, std::move(f));
      }
      it->value += value;
      cur = &*it;
    }
    cur->self += value;
  }
  return root;
}

const Frame* find_frame(const Frame& root, const std::string& name) {
  if (root.name == name) return &root;
  for (const Frame& c : root.children) {
    if (const Frame* f = find_frame(c, name)) return f;
  }
  return nullptr;
}

namespace {

u64 sum_named(const Frame& f, const std::string& name) {
  if (f.name == name) return f.value;  // includes all descendants
  u64 s = 0;
  for (const Frame& c : f.children) s += sum_named(c, name);
  return s;
}

// Deterministic warm palette keyed by the frame name, matching the classic
// flamegraph look (red→orange→yellow band).
std::string color_for(const std::string& name) {
  u64 h = 1469598103934665603ull;
  for (char c : name) h = (h ^ static_cast<u8>(c)) * 1099511628211ull;
  int r = 205 + static_cast<int>(h % 50);
  int g = static_cast<int>((h >> 8) % 180);
  int b = static_cast<int>((h >> 16) % 55);
  return str_format("rgb(%d,%d,%d)", r, g, b);
}

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

struct Layout {
  std::string* svg;
  const SvgOptions* opt;
  u64 total;
  int max_depth = 0;
};

void emit_frame(Layout& l, const Frame& f, double x, int depth, double px_per_tick) {
  double w = static_cast<double>(f.value) * px_per_tick;
  if (w < l.opt->min_width_px) return;
  l.max_depth = std::max(l.max_depth, depth);
  double y = static_cast<double>(depth) * l.opt->frame_height;
  double pct = l.total ? 100.0 * static_cast<double>(f.value) /
                             static_cast<double>(l.total)
                       : 0.0;
  std::string label = xml_escape(f.name);
  if (l.opt->ns_per_tick > 0) {
    // Calibrated profile: the tooltip leads with real time so "how long"
    // never requires mental tick arithmetic; the raw count stays for
    // cross-checking against the analyzer tables.
    *l.svg += str_format(
        "<g class=\"frame\"><title>%s (%.3f ms, %llu ticks, %.2f%%)</title>"
        "<rect x=\"%.2f\" y=\"%.1f\" width=\"%.2f\" height=\"%d\" fill=\"%s\" "
        "rx=\"1\"/>",
        label.c_str(),
        static_cast<double>(f.value) * l.opt->ns_per_tick / 1e6,
        static_cast<unsigned long long>(f.value), pct, x, y,
        std::max(w - 0.5, 0.1), l.opt->frame_height - 1,
        color_for(f.name).c_str());
  } else {
    *l.svg += str_format(
        "<g class=\"frame\"><title>%s (%llu ticks, %.2f%%)</title>"
        "<rect x=\"%.2f\" y=\"%.1f\" width=\"%.2f\" height=\"%d\" fill=\"%s\" "
        "rx=\"1\"/>",
        label.c_str(), static_cast<unsigned long long>(f.value), pct, x, y,
        std::max(w - 0.5, 0.1), l.opt->frame_height - 1,
        color_for(f.name).c_str());
  }
  // ~7 px per character at font-size 11; only label frames with room.
  usize fit = static_cast<usize>(w / 7.0);
  if (fit >= 3) {
    *l.svg += str_format(
        "<text x=\"%.2f\" y=\"%.1f\" font-size=\"11\" font-family=\"monospace\">"
        "%s</text>",
        x + 2, y + l.opt->frame_height - 4,
        xml_escape(ellipsize(f.name, fit)).c_str());
  }
  *l.svg += "</g>\n";

  double cx = x;
  for (const Frame& c : f.children) {
    emit_frame(l, c, cx, depth + 1, px_per_tick);
    cx += static_cast<double>(c.value) * px_per_tick;
  }
}

}  // namespace

double frame_fraction(const Frame& root, const std::string& name) {
  if (root.value == 0) return 0.0;
  return static_cast<double>(sum_named(root, name)) /
         static_cast<double>(root.value);
}

std::string render_svg(const FoldedStacks& stacks, const SvgOptions& options) {
  Frame root = build_frame_tree(stacks);

  // First pass to discover depth for the document height.
  std::string body;
  Layout l{&body, &options, root.value};
  double px_per_tick = root.value
                           ? static_cast<double>(options.width) /
                                 static_cast<double>(root.value)
                           : 0.0;
  emit_frame(l, root, 0.0, 0, px_per_tick);

  int title_h = 24;
  int height = (l.max_depth + 1) * options.frame_height + title_h + 8;
  std::string svg = str_format(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" "
      "viewBox=\"0 0 %d %d\">\n"
      "<rect width=\"100%%\" height=\"100%%\" fill=\"#f8f8f8\"/>\n"
      "<text x=\"%d\" y=\"16\" font-size=\"14\" font-family=\"sans-serif\" "
      "text-anchor=\"middle\">%s</text>\n"
      "<g transform=\"translate(0,%d)\">\n",
      options.width, height, options.width, height, options.width / 2,
      xml_escape(options.title).c_str(), title_h);
  svg += body;
  svg += "</g>\n</svg>\n";
  return svg;
}

std::string render_profile_svg(const analyzer::MergeableProfile& m,
                               const SvgOptions& options) {
  SvgOptions opt = options;
  // Default the calibration from the aggregate's tick rate so every caller
  // gets real-time tooltips for free; an explicit option still wins, and an
  // uncalibrated session (ns_per_tick 0) keeps the ticks-only tooltip.
  if (opt.ns_per_tick <= 0) opt.ns_per_tick = m.ns_per_tick;
  return render_svg(FoldedStacks(m.stacks.begin(), m.stacks.end()), opt);
}

}  // namespace teeperf::flamegraph

namespace teeperf::flamegraph {
namespace {

std::string timeline_color(const std::string& name) {
  u64 h = 14695981039346656037ull;
  for (char c : name) h = (h ^ static_cast<u8>(c)) * 1099511628211ull;
  // Cool palette so timelines read differently from flame graphs.
  int r = static_cast<int>(h % 90) + 40;
  int g = static_cast<int>((h >> 8) % 120) + 90;
  int b = 170 + static_cast<int>((h >> 16) % 80);
  char buf[32];
  std::snprintf(buf, sizeof buf, "rgb(%d,%d,%d)", r, g, b);
  return buf;
}

}  // namespace

std::string render_timeline_svg(const analyzer::Profile& profile,
                                const TimelineOptions& options) {
  const auto& all = profile.invocations();

  // Global time range and per-thread max depth.
  u64 t_min = ~0ull, t_max = 0;
  std::map<u64, u32> lane_depth;
  for (const auto& inv : all) {
    t_min = std::min(t_min, inv.start);
    t_max = std::max(t_max, inv.end);
    u32& d = lane_depth[inv.tid];
    d = std::max(d, inv.depth + 1);
  }
  if (all.empty() || t_max <= t_min) {
    return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"10\" "
           "height=\"10\"></svg>\n";
  }

  // Lane layout: lanes stacked top to bottom in tid order.
  std::map<u64, int> lane_y;
  int y = 28;
  for (const auto& [tid, depth] : lane_depth) {
    lane_y[tid] = y;
    y += static_cast<int>(depth) * options.row_height + 20;
  }
  int height = y + 6;

  double px_per_tick = static_cast<double>(options.width - 20) /
                       static_cast<double>(t_max - t_min);

  std::string svg = str_format(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\">\n"
      "<rect width=\"100%%\" height=\"100%%\" fill=\"#fcfcfe\"/>\n"
      "<text x=\"%d\" y=\"17\" font-size=\"13\" font-family=\"sans-serif\" "
      "text-anchor=\"middle\">%s</text>\n",
      options.width, height, options.width / 2,
      xml_escape(options.title).c_str());

  for (const auto& [tid, ly] : lane_y) {
    svg += str_format(
        "<text x=\"4\" y=\"%d\" font-size=\"10\" font-family=\"monospace\" "
        "fill=\"#666\">tid %llu</text>\n",
        ly - 3, static_cast<unsigned long long>(tid));
  }

  for (const auto& inv : all) {
    double x = 10 + static_cast<double>(inv.start - t_min) * px_per_tick;
    double w = static_cast<double>(inv.inclusive()) * px_per_tick;
    if (w < options.min_width_px) continue;
    int ry = lane_y[inv.tid] + static_cast<int>(inv.depth) * options.row_height;
    std::string name = xml_escape(profile.name(inv.method));
    svg += str_format(
        "<g><title>%s (%.3f ms, tid %llu, depth %u)</title>"
        "<rect x=\"%.2f\" y=\"%d\" width=\"%.2f\" height=\"%d\" fill=\"%s\" "
        "stroke=\"#fff\" stroke-width=\"0.3\"/>",
        name.c_str(), profile.ticks_to_ns(inv.inclusive()) / 1e6,
        static_cast<unsigned long long>(inv.tid), inv.depth, x, ry,
        std::max(w, 0.4), options.row_height - 1, timeline_color(name).c_str());
    usize fit = static_cast<usize>(w / 6.5);
    if (fit >= 4) {
      svg += str_format(
          "<text x=\"%.2f\" y=\"%d\" font-size=\"9\" "
          "font-family=\"monospace\">%s</text>",
          x + 2, ry + options.row_height - 3,
          xml_escape(ellipsize(profile.name(inv.method), fit)).c_str());
    }
    svg += "</g>\n";
  }
  svg += "</svg>\n";
  return svg;
}

}  // namespace teeperf::flamegraph
