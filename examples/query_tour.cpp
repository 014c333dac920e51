// Tour of the analyzer's declarative query interface (§II-C) — the C++
// equivalent of the paper's interactive pandas session. Profiles a Phoenix
// kernel, then answers the kinds of questions the paper lists: which thread
// called which method how often, call-history-dependent cost, contention
// candidates.
//
// Run:  ./query_tour
#include <cstdio>

#include "analyzer/profile.h"
#include "analyzer/query.h"
#include "analyzer/report.h"
#include "core/profiler.h"
#include "phoenix/phoenix.h"

using namespace teeperf;
using analyzer::InvocationTable;
using analyzer::SortKey;

int main() {
  // Record a 4-thread kmeans run.
  RecorderOptions opts;
  opts.max_entries = 1 << 21;
  auto recorder = Recorder::create(opts);
  if (!recorder || !recorder->attach()) return 1;

  auto input = phoenix::gen_kmeans(20'000, 4, 8, 7);
  phoenix::run_kmeans(input, 4, 10);

  recorder->detach();
  auto profile = analyzer::Profile::from_log(
      recorder->log(), SymbolRegistry::parse(SymbolRegistry::instance().serialize()));

  auto agg = analyzer::MergeableProfile::from_profile(profile);
  std::printf("== sorted method report (the default analyzer output) ==\n%s\n",
              analyzer::method_report(agg, 10).c_str());

  InvocationTable table(profile);

  std::printf("== which thread called which method how often ==\n");
  for (auto& g : table.where_name_contains("assign_point").group_by_tid()) {
    std::printf("  %-8s %8zu calls, %10.3f ms inclusive\n", g.key.c_str(), g.count,
                profile.ticks_to_ns(g.inclusive_total) / 1e6);
  }

  std::printf("\n== top 5 single invocations by exclusive time ==\n%s\n",
              table.sort_by(SortKey::kExclusive).top(5).to_string().c_str());

  std::printf("== call-history query: assign_point only when called under "
              "map_worker ==\n");
  u64 worker = SymbolRegistry::instance().intern("phoenix::kmeans::map_worker");
  auto under = table.where_name_contains("assign_point").where_called_under(worker);
  std::printf("  %zu of %zu assign_point calls ran under a map worker\n",
              under.count(), table.where_name_contains("assign_point").count());

  std::printf("\n== depth histogram (who sits where in the stack) ==\n");
  for (auto& g : table.group_by([](const analyzer::Invocation& inv) {
         return "depth=" + std::to_string(inv.depth);
       })) {
    std::printf("  %-10s %8zu invocations\n", g.key.c_str(), g.count);
  }

  std::printf("\n== dynamic call graph ==\n%s\n",
              analyzer::call_graph_report(agg, 10).c_str());
  return 0;
}
