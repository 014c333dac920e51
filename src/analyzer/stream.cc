#include "analyzer/stream.h"

#include <utility>

namespace teeperf::analyzer {

StreamAnalyzer::StreamAnalyzer(std::unordered_map<u64, std::string> symbols)
    : symbols_(std::move(symbols)) {}

void StreamAnalyzer::feed(u32 shard, const LogEntry* entries, u64 n) {
  folds_.feed(shard, entries, n);
}

MergeableProfile StreamAnalyzer::finish() {
  ReconstructionStats r = folds_.close_all();

  // Every shard's paths merge into one session tree, so each distinct
  // path is named and inserted once, not once per shard. Parents precede
  // children, so each node's parent is mapped first.
  PathTree session;
  std::vector<u32> to_session;
  folds_.for_each_sink([&](const PathTree& shard) {
    const std::vector<PathNode>& nodes = shard.nodes();
    to_session.assign(nodes.size(), 0);
    for (usize i = 1; i < nodes.size(); ++i) {
      u32 at = session.child(to_session[nodes[i].parent], nodes[i].method);
      to_session[i] = at;
      session.nodes()[at].agg.add(nodes[i].agg);
    }
  });
  MergeableProfile m = MergeableProfile::from_tree(session, symbols_);
  m.ns_per_tick = ns_per_tick_;
  m.stats = {r.entries,        r.stray_returns, r.mismatched_returns,
             r.unwound_frames, r.incomplete,    r.tombstones,
             folds_.thread_count()};
  return m;
}

std::optional<MergeableProfile> StreamAnalyzer::analyze(const std::string& prefix,
                                                        std::string* error) {
  StreamAnalyzer sa;
  auto info = walk_session(prefix, sa.folds_, error);
  if (!info) return std::nullopt;
  sa.symbols_ = std::move(info->symbols);
  sa.ns_per_tick_ = info->ns_per_tick;
  return sa.finish();
}

std::optional<MergeableProfile> StreamAnalyzer::analyze_spill(
    const std::string& prefix, std::string* error) {
  return analyze(prefix, error);
}

}  // namespace teeperf::analyzer
