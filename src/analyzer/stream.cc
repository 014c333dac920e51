#include "analyzer/stream.h"

#include <utility>

namespace teeperf::analyzer {

StreamAnalyzer::StreamAnalyzer(std::unordered_map<u64, std::string> symbols)
    : symbols_(std::move(symbols)) {}

void StreamAnalyzer::feed(u32 shard, const LogEntry* entries, u64 n) {
  folds_.feed(shard, entries, n);
}

SessionTree StreamAnalyzer::finish_tree() {
  SessionTree out;
  out.recon = folds_.close_all();
  out.thread_count = folds_.thread_count();
  out.symbols = std::move(symbols_);
  out.ns_per_tick = ns_per_tick_;

  // Every shard's paths merge into one session tree, so each distinct
  // path is named and inserted once, not once per shard. Parents precede
  // children, so each node's parent is mapped first.
  PathTree& session = out.tree;
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
  return out;
}

MergeableProfile StreamAnalyzer::finish() {
  return MergeableProfile::from_tree(finish_tree());
}

std::optional<SessionTree> StreamAnalyzer::analyze_tree(const std::string& prefix,
                                                        std::string* error) {
  StreamAnalyzer sa;
  auto info = walk_session(prefix, sa.folds_, error);
  if (!info) return std::nullopt;
  sa.symbols_ = std::move(info->symbols);
  sa.ns_per_tick_ = info->ns_per_tick;
  return sa.finish_tree();
}

std::optional<MergeableProfile> StreamAnalyzer::analyze(const std::string& prefix,
                                                        std::string* error) {
  auto tree = analyze_tree(prefix, error);
  if (!tree) return std::nullopt;
  return MergeableProfile::from_tree(*tree);
}

std::optional<MergeableProfile> StreamAnalyzer::analyze_spill(
    const std::string& prefix, std::string* error) {
  return analyze(prefix, error);
}

}  // namespace teeperf::analyzer
