// The test-side reference for the one fold's aggregate: a collected
// table's rows rolled up into a path tree, one node per distinct path
// (parents precede children), and named like every aggregate.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "analyzer/mprof.h"
#include "analyzer/query.h"

namespace teeperf {

inline analyzer::SessionTree rollup_tree(const analyzer::InvocationTable& t) {
  analyzer::SessionTree st{{}, t.symbols(), t.ns_per_tick(), t.recon_stats(),
                           t.thread_count()};
  const std::vector<analyzer::Invocation>& rows = t.invocations();
  std::vector<u32> node(rows.size());
  for (usize i = 0; i < rows.size(); ++i) {
    const analyzer::Invocation& r = rows[i];
    node[i] = st.tree.child(r.parent < 0 ? 0 : node[static_cast<usize>(r.parent)],
                            r.method);
    st.tree.nodes()[node[i]].agg.record(r.inclusive(), r.exclusive());
  }
  return st;
}

inline analyzer::MergeableProfile rollup(const analyzer::InvocationTable& t) {
  return analyzer::MergeableProfile::from_tree(rollup_tree(t));
}

// One dump's bytes parsed in memory (parse_dump) and collected into a
// table; nullopt when parse_dump rejects them.
inline std::optional<analyzer::InvocationTable> table_of_dump(std::string_view bytes) {
  return analyzer::InvocationTable::collect(
      [&](analyzer::SpanConsumer& out) -> std::optional<analyzer::SessionInfo> {
        auto dump = analyzer::parse_dump(bytes);
        if (!dump) return std::nullopt;
        analyzer::SpillStitcher one;
        std::vector<analyzer::ShardSpan> spans;
        one.absorb(*dump, &spans);
        out.consume(spans);
        return analyzer::SessionInfo{{}, dump->layout.ns_per_tick};
      });
}

}  // namespace teeperf
