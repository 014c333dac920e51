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

namespace {

// Folds (path, ticks) pairs into a frame tree whose children are ordered by
// name, so the layout does not depend on input order. Each path descends
// from the deepest component it shares with the previous one rather than
// from the root: sorted input shares long prefixes, and any other order
// still lands on the same tree.
template <class Stacks>
Frame fold_stacks(const Stacks& stacks) {
  Frame root;
  root.name = "all";
  // The previous path's components and their frames: frames[0] is the
  // root, frames[d + 1] the frame of parts[d]. Inserting a child moves the
  // frames at that level only, which the current path replaces anyway.
  std::vector<std::string_view> parts;
  std::vector<Frame*> frames{&root};
  for (const auto& [path, value] : stacks) {
    root.value += value;
    std::string_view rest = path;
    usize depth = 0;
    for (bool last = false; !last; ++depth) {
      usize semi = rest.find(';');
      last = semi == std::string_view::npos;
      std::string_view part = rest.substr(0, semi);
      if (!last) rest.remove_prefix(semi + 1);
      if (depth >= parts.size() || parts[depth] != part) {
        parts.resize(depth);
        frames.resize(depth + 1);
        std::vector<Frame>& kids = frames[depth]->children;
        auto it = std::lower_bound(kids.begin(), kids.end(), part,
                                   [](const Frame& f, std::string_view n) {
                                     return std::string_view(f.name) < n;
                                   });
        if (it == kids.end() || it->name != part) {
          Frame f;
          f.name = std::string(part);
          it = kids.insert(it, std::move(f));
        }
        parts.push_back(part);
        frames.push_back(&*it);
      }
      frames[depth + 1]->value += value;
    }
    // A path that is a prefix of the previous one ends above its frames.
    parts.resize(depth);
    frames.resize(depth + 1);
    frames[depth]->self += value;
  }
  return root;
}

}  // namespace

Frame build_frame_tree(const FoldedStacks& stacks) { return fold_stacks(stacks); }

Frame build_frame_tree(const analyzer::MergeableProfile& m) {
  return fold_stacks(m.stacks);
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

// FNV-1a of `s` from `basis`: the palettes' deterministic colour key.
u64 name_hash(std::string_view s, u64 basis) {
  u64 h = basis;
  for (char c : s) h = (h ^ static_cast<u8>(c)) * 1099511628211ull;
  return h;
}

void append_rgb(std::string& out, u64 r, u64 g, u64 b) {
  out += "rgb(";
  append_int(out, r);
  out += ',';
  append_int(out, g);
  out += ',';
  append_int(out, b);
  out += ')';
}

// Warm palette keyed by the frame name, matching the classic flamegraph
// look (red→orange→yellow band).
void append_flame_color(std::string& out, std::string_view name) {
  u64 h = name_hash(name, 1469598103934665603ull);
  append_rgb(out, 205 + h % 50, (h >> 8) % 180, (h >> 16) % 55);
}

// Cool palette so timelines read differently from flame graphs; `h` is
// timeline_key() of the row's name.
u64 timeline_key(std::string_view escaped_name) {
  return name_hash(escaped_name, 14695981039346656037ull);
}
void append_timeline_color(std::string& out, u64 h) {
  append_rgb(out, h % 90 + 40, (h >> 8) % 120 + 90, 170 + (h >> 16) % 80);
}

// `s` with the XML-special characters escaped, copied in runs.
void append_escaped(std::string& out, std::string_view s) {
  usize run = 0;
  for (usize i = 0; i < s.size(); ++i) {
    const char* entity;
    switch (s[i]) {
      case '&': entity = "&amp;"; break;
      case '<': entity = "&lt;"; break;
      case '>': entity = "&gt;"; break;
      case '"': entity = "&quot;"; break;
      default: continue;
    }
    out.append(s, run, i - run);
    out += entity;
    run = i + 1;
  }
  out.append(s, run);
}

std::string xml_escape(std::string_view s) {
  std::string out;
  append_escaped(out, s);
  return out;
}

// A label of at most `max` characters: ellipsize(), then escaped.
void append_label(std::string& out, std::string_view s, usize max) {
  if (s.size() <= max) return append_escaped(out, s);
  if (max <= 2) return append_escaped(out, s.substr(0, max));
  append_escaped(out, s.substr(0, max - 2));
  out += "..";
}

// What the layout draws: frames at least `min_width_px` wide whose
// ancestors are drawn too. Counts them and finds the deepest, so the
// document's height and size are known before its body is written.
void measure(const Frame& f, int depth, double px_per_tick, double min_width_px,
             int* max_depth, usize* frames) {
  if (static_cast<double>(f.value) * px_per_tick < min_width_px) return;
  *max_depth = std::max(*max_depth, depth);
  ++*frames;
  for (const Frame& c : f.children) {
    measure(c, depth + 1, px_per_tick, min_width_px, max_depth, frames);
  }
}

struct Layout {
  std::string* svg;
  const SvgOptions* opt;
  u64 total;
};

void emit_frame(Layout& l, const Frame& f, double x, int depth, double px_per_tick) {
  double w = static_cast<double>(f.value) * px_per_tick;
  if (w < l.opt->min_width_px) return;
  double y = static_cast<double>(depth) * l.opt->frame_height;
  double pct = l.total ? 100.0 * static_cast<double>(f.value) /
                             static_cast<double>(l.total)
                       : 0.0;
  std::string& out = *l.svg;
  out += "<g class=\"frame\"><title>";
  append_escaped(out, f.name);
  out += " (";
  if (l.opt->ns_per_tick > 0) {
    // Calibrated profile: the tooltip leads with real time so "how long"
    // never requires mental tick arithmetic; the raw count stays for
    // cross-checking against the analyzer tables.
    append_fixed(out, static_cast<double>(f.value) * l.opt->ns_per_tick / 1e6, 3);
    out += " ms, ";
  }
  append_int(out, f.value);
  out += " ticks, ";
  append_fixed(out, pct, 2);
  out += "%)</title><rect x=\"";
  append_fixed(out, x, 2);
  out += "\" y=\"";
  append_fixed(out, y, 1);
  out += "\" width=\"";
  append_fixed(out, std::max(w - 0.5, 0.1), 2);
  out += "\" height=\"";
  append_int(out, l.opt->frame_height - 1);
  out += "\" fill=\"";
  append_flame_color(out, f.name);
  out += "\" rx=\"1\"/>";
  // ~7 px per character at font-size 11; only label frames with room.
  usize fit = static_cast<usize>(w / 7.0);
  if (fit >= 3) {
    out += "<text x=\"";
    append_fixed(out, x + 2, 2);
    out += "\" y=\"";
    append_fixed(out, y + l.opt->frame_height - 4, 1);
    out += "\" font-size=\"11\" font-family=\"monospace\">";
    append_label(out, f.name, fit);
    out += "</text>";
  }
  out += "</g>\n";

  double cx = x;
  for (const Frame& c : f.children) {
    emit_frame(l, c, cx, depth + 1, px_per_tick);
    cx += static_cast<double>(c.value) * px_per_tick;
  }
}

std::string render_tree(const Frame& root, const SvgOptions& options) {
  double px_per_tick = root.value
                           ? static_cast<double>(options.width) /
                                 static_cast<double>(root.value)
                           : 0.0;
  int max_depth = 0;
  usize frames = 0;
  measure(root, 0, px_per_tick, options.min_width_px, &max_depth, &frames);

  int title_h = 24;
  int height = (max_depth + 1) * options.frame_height + title_h + 8;
  std::string svg = str_format(
      "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" "
      "viewBox=\"0 0 %d %d\">\n"
      "<rect width=\"100%%\" height=\"100%%\" fill=\"#f8f8f8\"/>\n"
      "<text x=\"%d\" y=\"16\" font-size=\"14\" font-family=\"sans-serif\" "
      "text-anchor=\"middle\">%s</text>\n"
      "<g transform=\"translate(0,%d)\">\n",
      options.width, height, options.width, height, options.width / 2,
      xml_escape(options.title).c_str(), title_h);
  // A labelled frame takes about 250 bytes.
  svg.reserve(svg.size() + frames * 256 + 16);
  Layout l{&svg, &options, root.value};
  emit_frame(l, root, 0.0, 0, px_per_tick);
  svg += "</g>\n</svg>\n";
  return svg;
}

}  // namespace

double frame_fraction(const Frame& root, const std::string& name) {
  if (root.value == 0) return 0.0;
  return static_cast<double>(sum_named(root, name)) /
         static_cast<double>(root.value);
}

std::string render_svg(const FoldedStacks& stacks, const SvgOptions& options) {
  return render_tree(fold_stacks(stacks), options);
}

std::string render_profile_svg(const analyzer::MergeableProfile& m,
                               const SvgOptions& options) {
  SvgOptions opt = options;
  // Default the calibration from the aggregate's tick rate so every caller
  // gets real-time tooltips for free; an explicit option still wins, and an
  // uncalibrated session (ns_per_tick 0) keeps the ticks-only tooltip.
  if (opt.ns_per_tick <= 0) opt.ns_per_tick = m.ns_per_tick;
  return render_tree(fold_stacks(m.stacks), opt);
}

std::string render_timeline_svg(const analyzer::InvocationTable& table,
                                const TimelineOptions& options) {
  // Global time range and per-thread max depth.
  u64 t_min = ~0ull, t_max = 0;
  std::map<u64, u32> lane_depth;
  for (usize i = 0; i < table.count(); ++i) {
    const analyzer::Invocation& inv = table.row(i);
    t_min = std::min(t_min, inv.start);
    t_max = std::max(t_max, inv.end);
    u32& d = lane_depth[inv.tid];
    d = std::max(d, inv.depth + 1);
  }
  if (table.count() == 0 || t_max <= t_min) {
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
    svg += "<text x=\"4\" y=\"";
    append_int(svg, ly - 3);
    svg += "\" font-size=\"10\" font-family=\"monospace\" fill=\"#666\">tid ";
    append_int(svg, tid);
    svg += "</text>\n";
  }

  analyzer::MethodNames names(table.symbols());
  for (usize i = 0; i < table.count(); ++i) {
    const analyzer::Invocation& inv = table.row(i);
    double x = 10 + static_cast<double>(inv.start - t_min) * px_per_tick;
    double w = static_cast<double>(inv.inclusive()) * px_per_tick;
    if (w < options.min_width_px) continue;
    int ry = lane_y[inv.tid] + static_cast<int>(inv.depth) * options.row_height;
    const std::string& name = names(inv.method);
    svg += "<g><title>";
    usize at = svg.size();
    append_escaped(svg, name);
    // The colour is keyed by the escaped name, just written.
    u64 key = timeline_key(std::string_view(svg).substr(at));
    svg += " (";
    append_fixed(svg, table.ticks_to_ns(inv.inclusive()) / 1e6, 3);
    svg += " ms, tid ";
    append_int(svg, inv.tid);
    svg += ", depth ";
    append_int(svg, inv.depth);
    svg += ")</title><rect x=\"";
    append_fixed(svg, x, 2);
    svg += "\" y=\"";
    append_int(svg, ry);
    svg += "\" width=\"";
    append_fixed(svg, std::max(w, 0.4), 2);
    svg += "\" height=\"";
    append_int(svg, options.row_height - 1);
    svg += "\" fill=\"";
    append_timeline_color(svg, key);
    svg += "\" stroke=\"#fff\" stroke-width=\"0.3\"/>";
    usize fit = static_cast<usize>(w / 6.5);
    if (fit >= 4) {
      svg += "<text x=\"";
      append_fixed(svg, x + 2, 2);
      svg += "\" y=\"";
      append_int(svg, ry + options.row_height - 3);
      svg += "\" font-size=\"9\" font-family=\"monospace\">";
      append_label(svg, name, fit);
      svg += "</text>";
    }
    svg += "</g>\n";
  }
  svg += "</svg>\n";
  return svg;
}

}  // namespace teeperf::flamegraph
