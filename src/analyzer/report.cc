#include "analyzer/report.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "analyzer/fold.h"
#include "common/fileutil.h"
#include "common/stringutil.h"

namespace teeperf::analyzer {

namespace {

// Count occurrences of `"event":"<name>"` in the JSON-lines journal — a
// full JSON parser is overkill for counting well-known event types the
// exporter itself emitted.
usize count_events(const std::string& jsonl, const char* name) {
  std::string needle = str_format("\"event\":\"%s\"", name);
  usize n = 0;
  for (usize at = jsonl.find(needle); at != std::string::npos;
       at = jsonl.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// The aggregate's methods by exclusive time, descending; ties keep the
// map's name order.
std::vector<const std::pair<const std::string, MprofMethod>*> sorted_methods(
    const MergeableProfile& m) {
  std::vector<const std::pair<const std::string, MprofMethod>*> rows;
  rows.reserve(m.methods.size());
  for (const auto& row : m.methods) rows.push_back(&row);
  std::stable_sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return a->second.exclusive_total > b->second.exclusive_total;
  });
  return rows;
}

}  // namespace

std::string health_report(const std::string& prefix) {
  auto health = read_file(prefix + ".health");
  auto events = read_file(prefix + ".events.jsonl");
  if (!health && !events) return "";

  std::string out = "recorder health (" + prefix + ".health):\n";
  if (events) {
    // Degradation warnings first — the numbers below only mean what they
    // claim when the recorder itself was healthy.
    struct Check {
      const char* event;
      const char* warning;
    };
    static const Check kChecks[] = {
        {"counter_stall", "software counter stalled mid-run; timestamps "
                          "within stalls carry zero duration"},
        {"counter_drift", "counter rate drifted from its calibrated "
                          "baseline; tick→ns conversion is approximate"},
        {"counter_backjump", "counter word moved backwards (tampered or "
                             "wrapped time source); affected windows were "
                             "excluded from calibration"},
        {"counter_failover", "replicated counter elected a new primary "
                             "after a stall or backjump; timestamps stay "
                             "monotonic but resolution dips at the switch"},
        {"log_saturated", "log filled up; entries past capacity were "
                          "dropped (non-ring mode)"},
        {"torn_tail", "reserved-but-unwritten entries at the log tail "
                      "(threads killed mid-append?)"},
        {"ring_wrap", "ring buffer wrapped; oldest entries overwritten"},
        {"epc_pressure", "EPC paging pressure during the run"},
    };
    usize warned = 0;
    for (const Check& c : kChecks) {
      if (usize n = count_events(*events, c.event)) {
        out += str_format("  WARNING: %s (%zux): %s\n", c.event, n, c.warning);
        ++warned;
      }
    }
    if (!warned) out += "  no degradation events recorded\n";
  }
  if (health) out += *health;
  return out;
}

std::string method_report(const MergeableProfile& m, usize limit) {
  auto rows = sorted_methods(m);
  u64 total_excl = m.total_exclusive();
  std::string out = str_format("%-52s %10s %12s %12s %7s\n", "method", "calls",
                               "excl(ms)", "incl(ms)", "excl%");
  usize shown = 0;
  for (const auto* row : rows) {
    if (shown++ >= limit) {
      out += str_format("... (%zu more methods)\n", rows.size() - limit);
      break;
    }
    const MprofMethod& mm = row->second;
    double pct = total_excl
                     ? 100.0 * static_cast<double>(mm.exclusive_total) /
                           static_cast<double>(total_excl)
                     : 0.0;
    out += str_format("%-52s %10llu %12.3f %12.3f %6.1f%%\n",
                      ellipsize(row->first, 52).c_str(),
                      static_cast<unsigned long long>(mm.count),
                      ticks_to_ns(m.ns_per_tick, mm.exclusive_total) / 1e6,
                      ticks_to_ns(m.ns_per_tick, mm.inclusive_total) / 1e6, pct);
  }
  return out;
}

std::string call_graph_report(const MergeableProfile& m, usize limit) {
  // By call count, descending; ties keep the map's (caller, callee) order.
  std::vector<const std::pair<const MprofEdgeKey, MprofEdge>*> edges;
  edges.reserve(m.edges.size());
  for (const auto& e : m.edges) edges.push_back(&e);
  std::stable_sort(edges.begin(), edges.end(), [](const auto* a, const auto* b) {
    return a->second.count > b->second.count;
  });
  std::string out = str_format("%-40s %-40s %10s %12s\n", "caller", "callee",
                               "count", "incl(ms)");
  usize shown = 0;
  for (const auto* e : edges) {
    if (shown++ >= limit) {
      out += str_format("... (%zu more edges)\n", edges.size() - limit);
      break;
    }
    const MprofEdgeKey& k = e->first;
    out += str_format("%-40s %-40s %10llu %12.3f\n",
                      ellipsize(k.from_root ? "<root>" : k.caller, 40).c_str(),
                      ellipsize(k.callee, 40).c_str(),
                      static_cast<unsigned long long>(e->second.count),
                      ticks_to_ns(m.ns_per_tick, e->second.inclusive_total) / 1e6);
  }
  return out;
}

std::string gprof_flat_report(const MergeableProfile& m, usize limit) {
  auto rows = sorted_methods(m);
  double total_s = 0;
  for (const auto* row : rows) {
    total_s += ticks_to_ns(m.ns_per_tick, row->second.exclusive_total) / 1e9;
  }

  std::string out =
      "Flat profile (gprof format):\n"
      "  %   cumulative   self              self     total\n"
      " time   seconds   seconds    calls  ms/call  ms/call  name\n";
  double cumulative = 0;
  usize shown = 0;
  for (const auto* row : rows) {
    if (shown++ >= limit) break;
    const MprofMethod& mm = row->second;
    double self_s = ticks_to_ns(m.ns_per_tick, mm.exclusive_total) / 1e9;
    double total_ms = ticks_to_ns(m.ns_per_tick, mm.inclusive_total) / 1e6;
    cumulative += self_s;
    double pct = total_s > 0 ? 100.0 * self_s / total_s : 0;
    out += str_format(
        "%6.2f %9.2f %9.2f %8llu %8.4f %8.4f  %s\n", pct, cumulative, self_s,
        static_cast<unsigned long long>(mm.count),
        mm.count ? self_s * 1e3 / static_cast<double>(mm.count) : 0.0,
        mm.count ? total_ms / static_cast<double>(mm.count) : 0.0,
        row->first.c_str());
  }
  return out;
}

std::string diff_report(const MergeableProfile& before,
                        const MergeableProfile& after, usize limit) {
  // Both aggregates are keyed by symbolized name: the two profiles come
  // from different runs, so method ids are only comparable through names.
  struct Entry {
    double before_ms = 0, after_ms = 0;
    u64 before_calls = 0, after_calls = 0;
  };
  std::map<std::string, Entry> by_name;
  for (const auto& [name, mm] : before.methods) {
    Entry& e = by_name[name];
    e.before_ms = ticks_to_ns(before.ns_per_tick, mm.exclusive_total) / 1e6;
    e.before_calls = mm.count;
  }
  for (const auto& [name, mm] : after.methods) {
    Entry& e = by_name[name];
    e.after_ms = ticks_to_ns(after.ns_per_tick, mm.exclusive_total) / 1e6;
    e.after_calls = mm.count;
  }

  // By absolute delta, descending; ties keep name order.
  std::vector<const std::pair<const std::string, Entry>*> rows;
  rows.reserve(by_name.size());
  for (const auto& row : by_name) rows.push_back(&row);
  std::stable_sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
    return std::abs(a->second.after_ms - a->second.before_ms) >
           std::abs(b->second.after_ms - b->second.before_ms);
  });

  std::string out = str_format("%-44s %12s %12s %12s %9s %9s\n", "method",
                               "before(ms)", "after(ms)", "delta(ms)", "calls_b",
                               "calls_a");
  usize shown = 0;
  for (const auto* row : rows) {
    if (shown++ >= limit) {
      out += str_format("... (%zu more methods)\n", rows.size() - limit);
      break;
    }
    const Entry& e = row->second;
    out += str_format("%-44s %12.3f %12.3f %+12.3f %9llu %9llu\n",
                      ellipsize(row->first, 44).c_str(), e.before_ms, e.after_ms,
                      e.after_ms - e.before_ms,
                      static_cast<unsigned long long>(e.before_calls),
                      static_cast<unsigned long long>(e.after_calls));
  }
  return out;
}

std::string hottest_report(const MergeableProfile& m) {
  // Strictly greater: the first hottest path in name order wins.
  const std::string* path = nullptr;
  u64 ticks = 0;
  for (const auto& [p, t] : m.stacks) {
    if (t > ticks) {
      path = &p;
      ticks = t;
    }
  }
  return str_format("hottest stack (%.3f ms exclusive):\n  %s\n",
                    ticks_to_ns(m.ns_per_tick, ticks) / 1e6, path ? path->c_str() : "");
}

std::string mprof_summary(const MergeableProfile& m) {
  return str_format(
      "sessions=%llu entries=%llu threads=%llu methods=%zu edges=%zu "
      "stacks=%zu stray_returns=%llu mismatched=%llu unwound=%llu "
      "incomplete=%llu tombstones=%llu",
      static_cast<unsigned long long>(m.sessions),
      static_cast<unsigned long long>(m.stats.entries),
      static_cast<unsigned long long>(m.stats.thread_count), m.methods.size(),
      m.edges.size(), m.stacks.size(),
      static_cast<unsigned long long>(m.stats.stray_returns),
      static_cast<unsigned long long>(m.stats.mismatched_returns),
      static_cast<unsigned long long>(m.stats.unwound_frames),
      static_cast<unsigned long long>(m.stats.incomplete),
      static_cast<unsigned long long>(m.stats.tombstones));
}

namespace {

struct TreeNode {
  u64 inclusive = 0;
  std::map<std::string, TreeNode> children;
};

void render_tree(double ns_per_tick, const TreeNode& node,
                 const std::string& name, int depth, u64 total,
                 double min_fraction, std::string* out) {
  double frac = total ? static_cast<double>(node.inclusive) /
                            static_cast<double>(total)
                      : 0.0;
  *out += str_format("%6.1f%% %10.3f ms  %*s%s\n", frac * 100,
                     ticks_to_ns(ns_per_tick, node.inclusive) / 1e6, depth * 2, "",
                     name.c_str());
  // Children largest-first, ties in name order; tiny ones folded together.
  std::vector<std::pair<std::string, const TreeNode*>> kids;
  for (const auto& [n, c] : node.children) kids.emplace_back(n, &c);
  std::stable_sort(kids.begin(), kids.end(), [](const auto& a, const auto& b) {
    return a.second->inclusive > b.second->inclusive;
  });
  u64 folded = 0;
  usize folded_count = 0;
  for (const auto& [n, c] : kids) {
    double child_frac = total ? static_cast<double>(c->inclusive) /
                                    static_cast<double>(total)
                              : 0.0;
    if (child_frac < min_fraction) {
      folded += c->inclusive;
      ++folded_count;
      continue;
    }
    render_tree(ns_per_tick, *c, n, depth + 1, total, min_fraction, out);
  }
  if (folded_count > 0) {
    *out += str_format("%6.1f%% %10.3f ms  %*s(other: %zu callees)\n",
                       total ? 100.0 * static_cast<double>(folded) /
                                   static_cast<double>(total)
                             : 0.0,
                       ticks_to_ns(ns_per_tick, folded) / 1e6, (depth + 1) * 2, "",
                       folded_count);
  }
}

}  // namespace

std::string call_tree_report(const SessionTree& t, double min_fraction) {
  // The path tree keyed by name instead of method id (like the flame
  // graph's frame tree, but rendered as indented text): paths whose frames
  // name alike share a node. Parents precede children.
  MethodNames name(t);
  const std::vector<PathNode>& nodes = t.tree.nodes();
  TreeNode root;
  std::vector<TreeNode*> node_of(nodes.size(), &root);
  for (usize i = 1; i < nodes.size(); ++i) {
    TreeNode& node = node_of[nodes[i].parent]->children[name(nodes[i].method)];
    node.inclusive += nodes[i].agg.inclusive_total;
    node_of[i] = &node;
  }
  for (const auto& [n, c] : root.children) {
    (void)n;
    root.inclusive += c.inclusive;
  }

  std::string out;
  render_tree(t.ns_per_tick, root, "<all threads>", 0, root.inclusive,
              min_fraction, &out);
  return out;
}

std::string bottom_up_report(const SessionTree& t, usize leaf_limit,
                             usize callers_per_leaf) {
  // Exclusive ticks per method and per (method, direct caller), by name.
  struct CallerAgg {
    u64 excl = 0;
    u64 count = 0;
  };
  struct Leaf {
    u64 excl = 0;
    std::map<std::string, CallerAgg> callers;
  };
  MethodNames name(t);
  const std::vector<PathNode>& nodes = t.tree.nodes();
  std::map<std::string, Leaf> by_name;
  for (usize i = 1; i < nodes.size(); ++i) {
    const PathNode& node = nodes[i];
    Leaf& leaf = by_name[name(node.method)];
    leaf.excl += node.agg.exclusive_total;
    CallerAgg& caller =
        leaf.callers[node.parent == 0 ? "<root>" : name(nodes[node.parent].method)];
    caller.excl += node.agg.exclusive_total;
    caller.count += node.agg.count;
  }

  // Leaves and callers by exclusive time, descending; ties keep name order.
  auto by_excl = [](const auto* a, const auto* b) {
    return a->second.excl > b->second.excl;
  };
  std::vector<const std::pair<const std::string, Leaf>*> leaves;
  for (const auto& leaf : by_name) leaves.push_back(&leaf);
  std::stable_sort(leaves.begin(), leaves.end(), by_excl);

  std::string out = "Bottom-up (exclusive time, by direct caller):\n";
  usize shown = 0;
  for (const auto* leaf : leaves) {
    if (shown++ >= leaf_limit) break;
    u64 total = leaf->second.excl;
    out += str_format("%-56s %12.3f ms\n", ellipsize(leaf->first, 56).c_str(),
                      ticks_to_ns(t.ns_per_tick, total) / 1e6);
    std::vector<const std::pair<const std::string, CallerAgg>*> callers;
    for (const auto& c : leaf->second.callers) callers.push_back(&c);
    std::stable_sort(callers.begin(), callers.end(), by_excl);
    usize cshown = 0;
    for (const auto* c : callers) {
      if (cshown++ >= callers_per_leaf) {
        out += str_format("    ... (%zu more callers)\n",
                          callers.size() - callers_per_leaf);
        break;
      }
      double pct = total ? 100.0 * static_cast<double>(c->second.excl) /
                               static_cast<double>(total)
                         : 0;
      out += str_format("    %5.1f%% %10llu calls  from %s\n", pct,
                        static_cast<unsigned long long>(c->second.count),
                        ellipsize(c->first, 48).c_str());
    }
  }
  return out;
}

void ThreadRollup::add(const Invocation& row) {
  Thread& t = threads_[row.tid];
  ++t.invocations;
  if (row.depth == 0) t.root_inclusive += row.inclusive();
  t.exclusive_by_method[row.method] += row.exclusive();
}

std::string ThreadRollup::report(const std::unordered_map<u64, std::string>& symbols,
                                 double ns_per_tick) const {
  std::string out = str_format("%-6s %12s %12s  %-48s\n", "tid", "invocations",
                               "root(ms)", "busiest method (exclusive)");
  for (const auto& [tid, t] : threads_) {
    auto busiest = std::max_element(
        t.exclusive_by_method.begin(), t.exclusive_by_method.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    out += str_format("%-6llu %12llu %12.3f  %-48s\n",
                      static_cast<unsigned long long>(tid),
                      static_cast<unsigned long long>(t.invocations),
                      ticks_to_ns(ns_per_tick, t.root_inclusive) / 1e6,
                      ellipsize(resolve_name(symbols, busiest->first), 48).c_str());
  }
  return out;
}

void CsvRows::add(const Invocation& row) {
  // Quote the method name; double any embedded quotes per RFC 4180.
  text += '"';
  for (char c : name_(row.method)) {
    text += c;
    if (c == '"') text += '"';
  }
  text += "\",";
  for (u64 v : {row.tid, u64{row.depth}, row.start, row.end, row.inclusive(),
                row.exclusive(), row.calls_made}) {
    append_int(text, v);
    text += ',';
  }
  text += row.complete ? "1\n" : "0\n";
}

void ChromeTrace::add(const Invocation& row) {
  if (!first_) text += ",\n";
  first_ = false;
  text += "{\"name\":\"";
  for (char c : name_(row.method)) {
    if (c == '"' || c == '\\') text += '\\';
    text += c;
  }
  text += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  append_int(text, row.tid);
  text += ",\"ts\":";
  append_fixed(text, ticks_to_ns(ns_per_tick_, row.start) / 1e3, 3);
  text += ",\"dur\":";
  append_fixed(text, ticks_to_ns(ns_per_tick_, row.inclusive()) / 1e3, 3);
  text += '}';
}

std::string timeline_csv(const InvocationTable& table) {
  std::vector<const Invocation*> order;
  order.reserve(table.count());
  for (usize i = 0; i < table.count(); ++i) order.push_back(&table.row(i));
  std::sort(order.begin(), order.end(), [](const Invocation* a, const Invocation* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->start != b->start) return a->start < b->start;
    return a->depth < b->depth;
  });
  MethodNames name(table.symbols());
  std::string out = "tid,method,start,end,depth\n";
  for (const Invocation* inv : order) {
    append_int(out, inv->tid);
    out += ",\"";
    out += name(inv->method);
    out += "\",";
    append_int(out, inv->start);
    out += ',';
    append_int(out, inv->end);
    out += ',';
    append_int(out, inv->depth);
    out += '\n';
  }
  return out;
}

}  // namespace teeperf::analyzer
