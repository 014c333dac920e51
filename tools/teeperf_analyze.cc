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
// The invocation-level commands share one more walk of the session, one row
// per invocation as its frame closes: each writes rows or keeps bounded
// aggregates as they arrive (--chrome and --csv rows in close order), and
// prints at its turn on the command line:
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
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

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

// One command of the command line: its flag and the arguments it took. A
// flag that is no command, or lacks its argument, is not `known`; it is
// reported when its turn comes.
struct Command {
  std::string flag;
  std::vector<std::string> args;
  bool known = true;
};

std::vector<Command> parse_commands(int argc, char** argv) {
  static const std::set<std::string> kNoArg = {
      "--callgraph", "--threads", "--tree",   "--validate",
      "--bottomup",  "--gprof",   "--hottest"};
  static const std::set<std::string> kOneArg = {
      "--top",  "--method", "--timeline", "--timeline-svg", "--chrome",
      "--csv",  "--folded", "--svg",      "--diff"};
  std::vector<Command> out;
  for (int i = 2; i < argc; ++i) {
    Command c{argv[i], {}};
    bool more = i + 1 < argc;
    if (c.flag == "--tid") {
      if (more) c.args.push_back(argv[++i]);
    } else if (c.flag == "--merge" && more) {
      // Every following argument up to the next flag is an input.
      while (i + 1 < argc && argv[i + 1][0] != '-') c.args.push_back(argv[++i]);
    } else if (kOneArg.count(c.flag) && more) {
      c.args.push_back(argv[++i]);
    } else {
      c.known = kNoArg.count(c.flag) > 0;
    }
    out.push_back(std::move(c));
  }
  return out;
}

// A command that reads invocation rows: every one is fed by the same walk
// of the session, then prints at its turn on the command line (a nonzero
// return is the exit code).
class RowCommand {
 public:
  virtual ~RowCommand() = default;
  virtual void add(const Invocation& row) = 0;
  virtual void finish() {}
  virtual int report() = 0;
};

// --top N --tid T: the N longest exclusive invocations on one thread.
class TopOnThread final : public RowCommand {
 public:
  TopOnThread(usize n, u64 tid, MethodNames& name)
      : n_(n), tid_(tid), name_(name), rows_({}, n, SortKey::kExclusive) {}
  void add(const Invocation& row) override {
    if (row.tid == tid_) rows_.add(row);
  }
  int report() override {
    std::vector<Invocation> top = rows_.top();
    std::printf("top invocations on tid %lld:\n%s\n", static_cast<long long>(tid_),
                rows_text(top, top.size(), n_, name_).c_str());
    return 0;
  }

 private:
  usize n_;
  u64 tid_;
  MethodNames& name_;
  RowAggregate rows_;
};

// --threads: the per-thread rollup.
class Threads final : public RowCommand {
 public:
  explicit Threads(const SessionTree& tree) : tree_(tree) {}
  void add(const Invocation& row) override { threads_.add(row); }
  int report() override {
    std::printf("%s\n", threads_.report(tree_.symbols, tree_.ns_per_tick).c_str());
    return 0;
  }

 private:
  const SessionTree& tree_;
  ThreadRollup threads_;
};

// --method S [--tid T]: the invocations whose name contains S, grouped by
// caller.
class MethodRows final : public RowCommand {
 public:
  MethodRows(std::string needle, i64 tid_filter, MethodNames& name, double ns_per_tick)
      : needle_(std::move(needle)),
        tid_filter_(tid_filter),
        name_(name),
        ns_per_tick_(ns_per_tick),
        rows_(
            [&name](const Invocation& row) {
              return row.depth == 0 ? std::string("<root>") : name(row.caller);
            },
            25, SortKey::kInclusive) {}
  void add(const Invocation& row) override {
    if (name_(row.method).find(needle_) != std::string::npos &&
        (tid_filter_ < 0 || row.tid == static_cast<u64>(tid_filter_))) {
      rows_.add(row);
    }
  }
  int report() override {
    std::printf("%zu invocations matching \"%s\" (%.3f ms inclusive):\n%s\n",
                rows_.count(), needle_.c_str(),
                ticks_to_ns(ns_per_tick_, rows_.sum_inclusive()) / 1e6,
                rows_text(rows_.top(), rows_.count(), 25, name_).c_str());
    std::printf("by caller:\n");
    for (auto& g : rows_.groups()) {
      std::printf("  %8zu from %s\n", g.count, g.key.c_str());
    }
    return 0;
  }

 private:
  std::string needle_;
  i64 tid_filter_;
  MethodNames& name_;
  double ns_per_tick_;
  RowAggregate rows_;
};

// --chrome / --csv: what `Writer` makes of every row, streamed into `path`
// 1 MiB at a time.
template <class Writer>
class RowFile final : public RowCommand {
 public:
  template <class... WriterArgs>
  RowFile(std::string path, const char* wrote_note, WriterArgs&&... args)
      : path_(std::move(path)),
        wrote_note_(wrote_note),
        writer_(std::forward<WriterArgs>(args)...),
        file_(std::fopen(path_.c_str(), "wb")),
        ok_(file_ != nullptr) {}
  void add(const Invocation& row) override {
    writer_.add(row);
    if (writer_.text.size() >= (1u << 20)) flush();
  }
  void finish() override {
    writer_.finish();
    flush();
    if (file_) ok_ = std::fclose(file_) == 0 && ok_;
    file_ = nullptr;
  }
  int report() override {
    if (!ok_) return 1;
    std::printf("wrote %s%s\n", path_.c_str(), wrote_note_);
    return 0;
  }

 private:
  void flush() {
    ok_ = ok_ && std::fwrite(writer_.text.data(), 1, writer_.text.size(), file_) ==
                     writer_.text.size();
    writer_.text.clear();
  }

  std::string path_;
  const char* wrote_note_;
  Writer writer_;
  std::FILE* file_;
  bool ok_;
};

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

  std::vector<Command> commands = parse_commands(argc, argv);
  i64 tid_filter = -1;
  // Pre-scan for --tid so it applies regardless of argument order.
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--tid") == 0) tid_filter = std::atoll(argv[i + 1]);
  }

  auto is_row_command = [&](const Command& c) {
    return (c.flag == "--top" && tid_filter >= 0) || c.flag == "--threads" ||
           c.flag == "--method" || c.flag == "--chrome" || c.flag == "--csv";
  };
  // The row commands, by their index in `commands`, up to the first unknown
  // one. They are set up and fed by one walk of the session when the first
  // of them comes up.
  std::vector<std::unique_ptr<RowCommand>> row_commands(commands.size());
  bool walked = false;
  auto walk_rows = [&] {
    std::vector<RowCommand*> live;
    for (usize k = 0; k < commands.size() && commands[k].known; ++k) {
      const Command& c = commands[k];
      std::unique_ptr<RowCommand>& rc = row_commands[k];
      if (!is_row_command(c)) continue;
      if (c.flag == "--top") {
        rc = std::make_unique<TopOnThread>(
            static_cast<usize>(std::atoll(c.args[0].c_str())),
            static_cast<u64>(tid_filter), name);
      } else if (c.flag == "--threads") {
        rc = std::make_unique<Threads>(*tree);
      } else if (c.flag == "--method") {
        rc = std::make_unique<MethodRows>(c.args[0], tid_filter, name,
                                          tree->ns_per_tick);
      } else if (c.flag == "--chrome") {
        // The rate is the session's (the last dump's), known before any row.
        rc = std::make_unique<RowFile<ChromeTrace>>(
            c.args[0], " (load in chrome://tracing or Perfetto)", tree->symbols,
            tree->ns_per_tick);
      } else if (c.flag == "--csv") {
        rc = std::make_unique<RowFile<CsvRows>>(c.args[0], "", tree->symbols);
      }
      if (rc) live.push_back(rc.get());
    }
    InvocationStream rows([&](const Invocation& row) {
      for (RowCommand* rc : live) rc->add(row);
    });
    if (!walk_session(prefix, rows)) {
      std::fprintf(stderr, "teeperf_analyze: cannot load %s\n", prefix.c_str());
      std::exit(1);
    }
    rows.finish();
    for (RowCommand* rc : live) rc->finish();
    walked = true;
  };

  bool did_something = false;
  for (usize k = 0; k < commands.size(); ++k) {
    const std::string& arg = commands[k].flag;
    const std::vector<std::string>& args = commands[k].args;
    if (!commands[k].known) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    }
    if (is_row_command(commands[k])) {
      if (!walked) walk_rows();
      if (int rc = row_commands[k]->report()) return rc;
      did_something = true;
    } else if (arg == "--top") {
      usize n = static_cast<usize>(std::atoll(args[0].c_str()));
      std::printf("%s\n", method_report(agg, n).c_str());
      did_something = true;
    } else if (arg == "--callgraph") {
      std::printf("%s\n", call_graph_report(agg).c_str());
      did_something = true;
    } else if (arg == "--tree") {
      std::printf("%s\n", call_tree_report(*tree).c_str());
      did_something = true;
    } else if (arg == "--timeline") {
      const std::string& path = args[0];
      if (!write_file(path, timeline_csv(invocations()))) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--timeline-svg") {
      const std::string& path = args[0];
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
    } else if (arg == "--merge") {
      // Fold further profiles into this one (multi-process profiling):
      // aggregates are keyed by name, so ids from other processes cannot
      // collide. The session itself always loaded, so this never fails.
      MergeableProfile merged = agg;
      usize dumps = 1;
      for (const std::string& input : args) {
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
    } else if (arg == "--bottomup") {
      std::printf("%s\n", bottom_up_report(*tree).c_str());
      did_something = true;
    } else if (arg == "--gprof") {
      std::printf("%s\n", gprof_flat_report(agg).c_str());
      did_something = true;
    } else if (arg == "--hottest") {
      std::printf("%s", hottest_report(agg).c_str());
      did_something = true;
    } else if (arg == "--folded") {
      const std::string& path = args[0];
      if (!write_file(path, agg.folded())) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--svg") {
      const std::string& path = args[0];
      flamegraph::SvgOptions opts;
      opts.title = prefix;
      if (!write_file(path, flamegraph::render_profile_svg(agg, opts))) return 1;
      std::printf("wrote %s\n", path.c_str());
      did_something = true;
    } else if (arg == "--diff") {
      const std::string& other = args[0];
      auto after = load_aggregate(other, &err);
      if (!after) {
        std::fprintf(stderr, "teeperf_analyze: cannot load %s: %s\n",
                     other.c_str(), err.c_str());
        return 1;
      }
      std::printf("diff (%s → %s):\n%s\n", prefix.c_str(), other.c_str(),
                  diff_report(agg, *after).c_str());
      did_something = true;
    }
    // --tid was applied by the pre-scan.
  }

  if (!did_something) std::printf("%s\n", method_report(agg).c_str());
  return 0;
}
