// The offline analyzer as a CLI (§II-B stage #3) — reads "<prefix>.log" +
// "<prefix>.sym" produced by teeperf_record (or Recorder::dump), or a spill
// session's chunk files, and answers from the command line what the
// paper's interactive pandas session answers.
//
//   teeperf_analyze <prefix> [commands]
//
// Every run streams the session once through the streaming analyzer
// (DESIGN.md §12): one chunk file at a time into its path tree, which
// stays as small as the number of distinct call paths. The summary line
// and every aggregate command read that tree or its aggregate:
//     --top N           per-method report, N rows       (default command)
//     --callgraph       dynamic caller→callee edge table
//     --tree            top-down call tree with percentages
//     --gprof           gprof-style flat profile
//     --bottomup        inverted call graph (who reaches the hot methods)
//     --hottest         the single most expensive stack
//     --folded <file>   write flame-graph folded stacks
//     --svg <file>      render the flame graph
//     --diff <in>       before/after comparison against a second profile
//     --merge <in>...   fold further profiles in (multi-process profiling);
//                       an input that does not load is reported and skipped
//   --diff and --merge inputs are session prefixes or `.mprof` files (an
//   argument ending in ".mprof" is read as an aggregate).
//
// The invocation-level commands stream the session once more each, one row
// per invocation as its frame closes, writing rows or keeping bounded
// aggregates as they arrive (--chrome and --csv rows in close order):
//     --threads         per-thread rollup
//     --method <substr> invocations matching a method name: count, total,
//                       the 25 longest, callers
//     --tid <n>         restrict --method/--top to one thread
//     --chrome <file>   Chrome trace-event JSON (chrome://tracing)
//     --csv <file>      dump every invocation as CSV
//   The timeline commands sort every invocation, so they collect the
//   session into an InvocationTable once, on first use:
//     --timeline <file>     per-thread invocation intervals as CSV
//     --timeline-svg <file> swim-lane SVG trace view
//   and --validate checks the raw entries of the whole session, spill
//   chunks included (monotonicity, balance).
//
// Mergeable-profile commands (DESIGN.md §12) take no session prefix — they
// run the streaming analyzer or operate on `.mprof` aggregates directly:
//   teeperf_analyze --mprof <prefix> <out.mprof>      stream-analyze a
//                      session (spill or plain) into a mergeable profile
//   teeperf_analyze --mprof-merge <out> <in.mprof>... fold aggregates
//                      (associative + commutative; any order, any grouping)
//   teeperf_analyze --mprof-info <file> [--top N] [--folded <out>]
//                      inspect an aggregate / emit its flame-graph input
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "analyzer/fold.h"
#include "analyzer/mprof.h"
#include "analyzer/query.h"
#include "analyzer/report.h"
#include "analyzer/stream.h"
#include "common/fileutil.h"
#include "common/stringutil.h"
#include "flamegraph/flamegraph.h"

using namespace teeperf;
using namespace teeperf::analyzer;

namespace {

int mprof_emit_main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: teeperf_analyze --mprof <prefix> <out.mprof>\n");
    return 2;
  }
  std::string err;
  auto m = StreamAnalyzer::analyze(argv[2], &err);
  if (!m) {
    std::fprintf(stderr, "teeperf_analyze: cannot analyze %s: %s\n", argv[2],
                 err.c_str());
    return 1;
  }
  if (!m->save_to(argv[3])) {
    std::fprintf(stderr, "teeperf_analyze: cannot write %s\n", argv[3]);
    return 1;
  }
  std::printf("%s\nwrote %s\n", mprof_summary(*m).c_str(), argv[3]);
  return 0;
}

int mprof_merge_main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: teeperf_analyze --mprof-merge <out.mprof> "
                 "<in.mprof>...\n");
    return 2;
  }
  MergeableProfile acc;
  for (int i = 3; i < argc; ++i) {
    std::string err;
    auto m = MergeableProfile::load(argv[i], &err);
    if (!m) {
      std::fprintf(stderr, "teeperf_analyze: cannot load %s: %s\n", argv[i],
                   err.c_str());
      return 1;
    }
    if (!acc.merge(*m)) {
      std::fprintf(stderr, "teeperf_analyze: merging %s overflows a counter\n",
                   argv[i]);
      return 1;
    }
  }
  if (!acc.save_to(argv[2])) {
    std::fprintf(stderr, "teeperf_analyze: cannot write %s\n", argv[2]);
    return 1;
  }
  std::printf("%s\nwrote %s\n", mprof_summary(acc).c_str(), argv[2]);
  return 0;
}

int mprof_info_main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: teeperf_analyze --mprof-info <file.mprof> [--top N] "
                 "[--folded <out>]\n");
    return 2;
  }
  std::string err;
  auto m = MergeableProfile::load(argv[2], &err);
  if (!m) {
    std::fprintf(stderr, "teeperf_analyze: cannot load %s: %s\n", argv[2],
                 err.c_str());
    return 1;
  }
  std::printf("%s\n", mprof_summary(*m).c_str());
  usize top = 30;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      top = static_cast<usize>(std::atoll(argv[++i]));
    } else if (arg == "--folded" && i + 1 < argc) {
      std::string path = argv[++i];
      if (!write_file(path, m->folded())) return 1;
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }
  std::printf("%s\n", method_report(*m, top).c_str());
  return 0;
}

// A --diff or --merge input: a `.mprof` aggregate, or a session prefix
// streamed into one.
std::optional<MergeableProfile> load_aggregate(const std::string& input,
                                               std::string* error) {
  if (ends_with(input, ".mprof")) return MergeableProfile::load(input, error);
  return StreamAnalyzer::analyze(input, error);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: teeperf_analyze <prefix> [options]\n");
    return 2;
  }
  if (std::strcmp(argv[1], "--mprof") == 0) return mprof_emit_main(argc, argv);
  if (std::strcmp(argv[1], "--mprof-merge") == 0) {
    return mprof_merge_main(argc, argv);
  }
  if (std::strcmp(argv[1], "--mprof-info") == 0) {
    return mprof_info_main(argc, argv);
  }
  std::string prefix = argv[1];
  std::string err;
  auto tree = StreamAnalyzer::analyze_tree(prefix, &err);
  if (!tree) {
    std::fprintf(stderr, "teeperf_analyze: cannot load %s: %s\n", prefix.c_str(),
                 err.c_str());
    return 1;
  }
  MergeableProfile agg = MergeableProfile::from_tree(*tree);
  std::printf("%s\n", mprof_summary(agg).c_str());
  // Self-telemetry sidecars from the recorder, when present: surfaces
  // counter stalls, log saturation, and other recorder-side degradation
  // before any numbers are trusted.
  std::string health = health_report(prefix);
  if (!health.empty()) std::printf("\n%s", health.c_str());
  std::printf("\n");

  // Every row of the session, handed to `visit` as its frame closes.
  auto stream_rows = [&](const InvocationStream::Visit& visit) {
    InvocationStream rows(visit);
    if (!walk_session(prefix, rows)) {
      std::fprintf(stderr, "teeperf_analyze: cannot load %s\n", prefix.c_str());
      std::exit(1);
    }
    rows.finish();
  };
  // Streams what `writer` makes of every row into `path`, 1 MiB at a time.
  auto write_rows = [&](const std::string& path, auto& writer) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return false;
    bool ok = true;
    auto flush = [&] {
      ok = ok && std::fwrite(writer.text.data(), 1, writer.text.size(), f) ==
                     writer.text.size();
      writer.text.clear();
    };
    stream_rows([&](const Invocation& row) {
      writer.add(row);
      if (writer.text.size() >= (1u << 20)) flush();
    });
    writer.finish();
    flush();
    return std::fclose(f) == 0 && ok;
  };
  MethodNames name(tree->symbols);
  // Every Invocation, for the timeline commands: collected once, on first use.
  std::optional<InvocationTable> loaded;
  auto invocations = [&]() -> const InvocationTable& {
    if (!loaded) {
      loaded = InvocationTable::load(prefix);
      if (!loaded) {
        std::fprintf(stderr, "teeperf_analyze: cannot load %s\n", prefix.c_str());
        std::exit(1);
      }
    }
    return *loaded;
  };

  bool did_something = false;
  i64 tid_filter = -1;

  // Pre-scan for --tid so it applies regardless of argument order.
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--tid") == 0) tid_filter = std::atoll(argv[i + 1]);
  }

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--top" && i + 1 < argc) {
      usize n = static_cast<usize>(std::atoll(argv[++i]));
      if (tid_filter >= 0) {
        RowAggregate rows({}, n, SortKey::kExclusive);
        stream_rows([&](const Invocation& row) {
          if (row.tid == static_cast<u64>(tid_filter)) rows.add(row);
        });
        std::vector<Invocation> top = rows.top();
        std::printf("top invocations on tid %lld:\n%s\n",
                    static_cast<long long>(tid_filter),
                    rows_text(top, top.size(), n, name).c_str());
      } else {
        std::printf("%s\n", method_report(agg, n).c_str());
      }
      did_something = true;
    } else if (arg == "--callgraph") {
      std::printf("%s\n", call_graph_report(agg).c_str());
      did_something = true;
    } else if (arg == "--threads") {
      ThreadRollup threads;
      stream_rows([&](const Invocation& row) { threads.add(row); });
      std::printf("%s\n", threads.report(tree->symbols, tree->ns_per_tick).c_str());
      did_something = true;
    } else if (arg == "--method" && i + 1 < argc) {
      std::string needle = argv[++i];
      RowAggregate rows(
          [&](const Invocation& row) {
            return row.depth == 0 ? std::string("<root>") : name(row.caller);
          },
          25, SortKey::kInclusive);
      stream_rows([&](const Invocation& row) {
        if (name(row.method).find(needle) != std::string::npos &&
            (tid_filter < 0 || row.tid == static_cast<u64>(tid_filter))) {
          rows.add(row);
        }
      });
      std::printf("%zu invocations matching \"%s\" (%.3f ms inclusive):\n%s\n",
                  rows.count(), needle.c_str(),
                  ticks_to_ns(tree->ns_per_tick, rows.sum_inclusive()) / 1e6,
                  rows_text(rows.top(), rows.count(), 25, name).c_str());
      std::printf("by caller:\n");
      for (auto& g : rows.groups()) {
        std::printf("  %8zu from %s\n", g.count, g.key.c_str());
      }
      did_something = true;
    } else if (arg == "--tree") {
      std::printf("%s\n", call_tree_report(*tree).c_str());
      did_something = true;
    } else if (arg == "--timeline" && i + 1 < argc) {
      std::string path = argv[++i];
      if (!write_file(path, timeline_csv(invocations()))) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--timeline-svg" && i + 1 < argc) {
      std::string path = argv[++i];
      flamegraph::TimelineOptions topts;
      topts.title = prefix;
      if (!write_file(path, flamegraph::render_timeline_svg(invocations(), topts)))
        return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--validate") {
      auto maybe_issues = validate_session(prefix);
      if (!maybe_issues) {
        std::fprintf(stderr, "cannot load session %s for validation\n",
                     prefix.c_str());
        return 1;
      }
      auto& issues = *maybe_issues;
      if (issues.empty()) {
        std::printf("validation: clean\n");
      } else {
        for (const auto& issue : issues) {
          std::printf("validation: tid=%llu entry=%llu %s\n",
                      static_cast<unsigned long long>(issue.tid),
                      static_cast<unsigned long long>(issue.entry_index),
                      issue.detail.c_str());
        }
      }
      did_something = true;
    } else if (arg == "--merge" && i + 1 < argc) {
      // Fold further profiles into this one (multi-process profiling):
      // aggregates are keyed by name, so ids from other processes cannot
      // collide. The session itself always loaded, so this never fails.
      MergeableProfile merged = agg;
      usize dumps = 1;
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        std::string input = argv[++i];
        auto m = load_aggregate(input, &err);
        if (!m) {
          std::fprintf(stderr, "teeperf_analyze: skipping %s: %s\n",
                       input.c_str(), err.c_str());
        } else if (!merged.merge(*m)) {
          std::fprintf(stderr, "teeperf_analyze: skipping %s: a counter overflows\n",
                       input.c_str());
        } else {
          ++dumps;
        }
      }
      std::printf("merged %zu dumps: %s\n%s\n", dumps, mprof_summary(merged).c_str(),
                  method_report(merged).c_str());
      did_something = true;
    } else if (arg == "--chrome" && i + 1 < argc) {
      std::string path = argv[++i];
      // The rate is the session's (the last dump's), known before any row.
      ChromeTrace trace(tree->symbols, tree->ns_per_tick);
      if (!write_rows(path, trace)) return 1;
      std::printf("wrote %s (load in chrome://tracing or Perfetto)\n",
                  path.c_str());
      did_something = true;
    } else if (arg == "--bottomup") {
      std::printf("%s\n", bottom_up_report(*tree).c_str());
      did_something = true;
    } else if (arg == "--gprof") {
      std::printf("%s\n", gprof_flat_report(agg).c_str());
      did_something = true;
    } else if (arg == "--hottest") {
      std::printf("%s", hottest_report(agg).c_str());
      did_something = true;
    } else if (arg == "--csv" && i + 1 < argc) {
      std::string path = argv[++i];
      CsvRows csv(tree->symbols);
      if (!write_rows(path, csv)) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--folded" && i + 1 < argc) {
      std::string path = argv[++i];
      if (!write_file(path, agg.folded())) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--svg" && i + 1 < argc) {
      std::string path = argv[++i];
      flamegraph::SvgOptions opts;
      opts.title = prefix;
      if (!write_file(path, flamegraph::render_profile_svg(agg, opts))) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--diff" && i + 1 < argc) {
      std::string other = argv[++i];
      auto after = load_aggregate(other, &err);
      if (!after) {
        std::fprintf(stderr, "teeperf_analyze: cannot load %s: %s\n",
                     other.c_str(), err.c_str());
        return 1;
      }
      std::printf("diff (%s → %s):\n%s\n", prefix.c_str(), other.c_str(),
                  diff_report(agg, *after).c_str());
      did_something = true;
    } else if (arg == "--tid") {
      ++i;  // consumed in the pre-scan
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
  }

  if (!did_something) std::printf("%s\n", method_report(agg).c_str());
  return 0;
}
