// teeperf_lint self-tests: lexer/parse unit checks, the rule fixtures under
// tests/lint/fixtures/ (exact rule ids and line numbers), manifest and
// baseline round trips, and the tier-1 gate that the real source tree lints
// clean. Fixture paths come in via TEEPERF_LINT_FIXTURE_DIR; the repo root
// via TEEPERF_SOURCE_ROOT (both set in tests/CMakeLists.txt).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/lint/lint.h"

namespace teeperf::lint {
namespace {

std::string fixture_dir() { return TEEPERF_LINT_FIXTURE_DIR; }
std::string source_root() { return TEEPERF_SOURCE_ROOT; }

// (rule, path-suffix, line) triple for compact expected-value tables.
using Row = std::tuple<std::string, std::string, int>;

std::vector<Row> rows(const std::vector<Finding>& findings) {
  std::vector<Row> out;
  for (const Finding& f : findings) {
    // Keep only the path below the fixture root so the table is
    // machine-independent.
    std::string path = f.file;
    const std::string marker = "fixtures/";
    auto pos = path.rfind(marker);
    if (pos != std::string::npos) path = path.substr(pos + marker.size());
    out.push_back({f.rule, path, f.line});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Lexer.

TEST(LintLexer, TokenKindsLinesAndUnescaping) {
  auto toks = lex("int a = 0x1F; // note\n\"a\\n\\\"b\"\n->::");
  ASSERT_GE(toks.size(), 9u);
  EXPECT_EQ(toks[0].kind, Tok::kIdent);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[3].kind, Tok::kNumber);
  EXPECT_EQ(toks[3].text, "0x1F");
  EXPECT_EQ(toks[5].kind, Tok::kComment);
  EXPECT_EQ(toks[5].line, 1);
  EXPECT_EQ(toks[6].kind, Tok::kString);
  EXPECT_EQ(toks[6].text, "a\n\"b");  // unescaped, quotes stripped
  EXPECT_EQ(toks[6].line, 2);
  EXPECT_EQ(toks[7].text, "->");  // longest-match punctuators
  EXPECT_EQ(toks[8].text, "::");
}

TEST(LintLexer, PreprocessorLinesFoldContinuations) {
  auto toks = lex("#define X \\\n  1\nint y;");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].kind, Tok::kPreproc);
  // The continuation is folded into one token; 'int' lands on line 3.
  EXPECT_EQ(toks[1].text, "int");
  EXPECT_EQ(toks[1].line, 3);
}

// ---------------------------------------------------------------------------
// Structural parse.

TEST(LintParse, WaiversAndConstants) {
  FileIndex fi = index_file(
      "x.cc",
      "// teeperf-lint: allow(r1, R2): reason text\n"
      "inline constexpr u64 kA = 4 * 8;\n"
      "inline constexpr u64 kB = kA - 2;\n");
  ASSERT_EQ(fi.waivers.size(), 1u);
  EXPECT_TRUE(fi.waived_at("r1", 1));
  EXPECT_TRUE(fi.waived_at("r2", 1));  // rule ids are lowercased
  EXPECT_FALSE(fi.waived_at("r3", 1));
  EXPECT_TRUE(fi.waived_in("r1", 1, 4));
  EXPECT_EQ(fi.constants.at("kA"), 32u);
  EXPECT_EQ(fi.constants.at("kB"), 30u);
}

// The layout engine is checked against the compiler itself: the same struct
// is both compiled here and fed to index_file as text.
struct LayoutSample {
  u32 a;
  u64 b;
  u16 c[3];
  double d;
  u8 tail[8 - 6];
};

TEST(LintParse, StructLayoutMatchesCompiler) {
  FileIndex fi = index_file("sample.h",
                            "struct LayoutSample {\n"
                            "  u32 a;\n"
                            "  u64 b;\n"
                            "  u16 c[3];\n"
                            "  double d;\n"
                            "  u8 tail[8 - 6];\n"
                            "};\n");
  ASSERT_EQ(fi.structs.size(), 1u);
  const StructDef& sd = fi.structs[0];
  ASSERT_TRUE(sd.layout_computed);
  EXPECT_EQ(sd.size, sizeof(LayoutSample));
  EXPECT_EQ(sd.align, alignof(LayoutSample));
  ASSERT_EQ(sd.fields.size(), 5u);
  EXPECT_EQ(sd.fields[0].offset, offsetof(LayoutSample, a));
  EXPECT_EQ(sd.fields[1].offset, offsetof(LayoutSample, b));
  EXPECT_EQ(sd.fields[2].offset, offsetof(LayoutSample, c));
  EXPECT_EQ(sd.fields[2].size, sizeof(u16) * 3);
  EXPECT_EQ(sd.fields[3].offset, offsetof(LayoutSample, d));
  EXPECT_EQ(sd.fields[4].offset, offsetof(LayoutSample, tail));
  EXPECT_EQ(sd.fields[4].size, 2u);  // extent evaluated: 8 - 6
}

// ---------------------------------------------------------------------------
// Fixtures: exact rule ids and line numbers, per file.

TEST(LintFixtures, ExactRuleIdsAndLines) {
  LintOptions opt;
  opt.paths = {fixture_dir()};
  LintResult res = run_lint(opt);
  ASSERT_TRUE(res.errors.empty()) << res.errors.front();

  std::vector<Row> expected = {
      {"r1", "core/r1_probe_impurity.cc", 11},  // malloc via helper_alloc
      {"r1", "core/r1_probe_impurity.cc", 12},  // free via helper_alloc
      {"r1", "core/r1_probe_impurity.cc", 17},  // std::string in on_enter
      {"r2", "r2_memory_order.cc", 10},         // load() implicit seq_cst
      {"r2", "r2_memory_order.cc", 11},         // store() implicit seq_cst
      {"r2", "r2_memory_order.cc", 13},         // CAS with one order
      {"r2", "r2_memory_order.cc", 15},         // failure > success
      {"r2", "r2_memory_order.cc", 17},         // failure = release
      {"r3", "r3_case/obs/layout.h", 7},        // layout not computable
      {"r3", "r3_case/obs/layout.h", 7},        // std::string member
      {"r3", "r3_case/obs/layout.h", 12},       // pointer member
      {"r4", "r4_raw_names.cc", 13},            // fires("shm.create.fail")
      {"r4", "r4_raw_names.cc", 14},            // counter("log.tail")
      {"r4", "r4_raw_names.cc", 15},            // family("log.dropped")
      {"r4", "r4_raw_names.cc", 23},            // byte-fault prefix "dump"
      {"r5", "analyzer/r5_fold_hot_loop.cc", 17},  // std::string via note
      {"r5", "analyzer/r5_fold_hot_loop.cc", 27},  // virtual call
      {"r5", "analyzer/r5_fold_hot_loop.cc", 28},  // operator new
      {"r5", "analyzer/r5_fold_hot_loop.cc", 29},  // function pointer
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rows(res.findings), expected);
}

TEST(LintFixtures, WaivedFileProducesNoFindings) {
  LintOptions opt;
  opt.paths = {fixture_dir() + "/core/waived_ok.cc"};
  LintResult res = run_lint(opt);
  EXPECT_TRUE(res.errors.empty());
  EXPECT_TRUE(res.findings.empty())
      << res.findings.front().file << ":" << res.findings.front().line << " "
      << res.findings.front().message;
}

// ---------------------------------------------------------------------------
// Baseline: findings are matched by rule|file|message, not line number.

TEST(LintBaseline, SuppressesByLineIndependentKey) {
  LintOptions opt;
  opt.paths = {fixture_dir()};
  LintResult plain = run_lint(opt);
  ASSERT_FALSE(plain.findings.empty());

  const std::string path = testing::TempDir() + "teeperf_lint_baseline_test.txt";
  {
    std::ofstream out(path);
    out << "# test baseline\n" << plain.findings.front().key() << "\n";
  }
  opt.baseline_path = path;
  LintResult res = run_lint(opt);
  EXPECT_EQ(res.baselined.size(), 1u);
  EXPECT_EQ(res.findings.size(), plain.findings.size() - 1);
  EXPECT_EQ(res.baselined.front().key(), plain.findings.front().key());
}

// ---------------------------------------------------------------------------
// Manifest round trip and mismatch detection.

const char kGoodHeader[] =
    "struct Slot {\n"
    "  u64 tag;\n"
    "  u32 len;\n"
    "  u32 pad;\n"
    "};\n";

TEST(LintManifest, RenderParseRoundTrip) {
  Corpus corpus;
  corpus.files.push_back(index_file("x/core/log_format.h", kGoodHeader));
  std::string json = render_manifest(corpus);

  std::vector<ManifestStruct> parsed;
  std::string error;
  ASSERT_TRUE(parse_manifest(json, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "Slot");
  EXPECT_EQ(parsed[0].size, 16u);
  EXPECT_EQ(parsed[0].align, 8u);
  ASSERT_EQ(parsed[0].fields.size(), 3u);
  EXPECT_EQ(parsed[0].fields[1].name, "len");
  EXPECT_EQ(parsed[0].fields[1].offset, 8u);
  EXPECT_EQ(parsed[0].fields[1].size, 4u);

  // A clean corpus against its own manifest: no findings.
  corpus.manifest = parsed;
  corpus.have_manifest = true;
  EXPECT_TRUE(run_rules(corpus).empty());
}

TEST(LintManifest, DriftAgainstManifestIsReported) {
  Corpus corpus;
  corpus.files.push_back(index_file("x/core/log_format.h", kGoodHeader));
  ManifestStruct ms;
  ms.name = "Slot";
  ms.file = "x/core/log_format.h";
  ms.size = 24;  // stale: header now says 16
  ms.align = 8;
  ms.fields = {{"tag", 0, 8}, {"len", 8, 4}, {"gone", 12, 4}};
  corpus.manifest = {ms};
  corpus.have_manifest = true;

  std::vector<Finding> findings = run_rules(corpus);
  std::set<std::string> messages;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "r3");
    messages.insert(f.message);
  }
  EXPECT_TRUE(messages.count(
      "Slot: size/align 16/8 != manifest 24/8"));
  EXPECT_TRUE(messages.count(
      "Slot.pad is not in the manifest (regenerate tools/shm_manifest.json)"));
  EXPECT_TRUE(messages.count(
      "Slot.gone is in the manifest but not in the struct"));
  EXPECT_EQ(findings.size(), 3u);
}

TEST(LintManifest, MalformedJsonReportsError) {
  std::vector<ManifestStruct> parsed;
  std::string error;
  EXPECT_FALSE(parse_manifest("{\"structs\": [", &parsed, &error));
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------------
// TESTING.md fault-point table extraction.

TEST(LintDocs, FaultPointTableParse) {
  std::set<std::string> points = parse_fault_point_table(
      "# Testing\n"
      "## Fault points\n"
      "| name | effect |\n"
      "|------|--------|\n"
      "| `shm.create.fail` | open fails |\n"
      "| `log.append.die` | SIGKILL mid-append |\n"
      "## Other section\n"
      "| `not.a.fault` | outside the table |\n");
  EXPECT_EQ(points,
            (std::set<std::string>{"shm.create.fail", "log.append.die"}));
}

// ---------------------------------------------------------------------------
// Tier-1 gate: the real tree lints clean against the checked-in manifest,
// TESTING.md and the (empty) baseline. This is the same invocation CI runs.

TEST(LintRepo, SourceTreeIsClean) {
  const std::string root = source_root();
  LintOptions opt;
  opt.paths = {root + "/src", root + "/tools", root + "/bench"};
  opt.manifest_path = root + "/tools/shm_manifest.json";
  opt.testing_md_path = root + "/TESTING.md";
  opt.baseline_path = root + "/tools/teeperf_lint_baseline.txt";
  LintResult res = run_lint(opt);
  for (const std::string& e : res.errors) ADD_FAILURE() << e;
  for (const Finding& f : res.findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
  // Policy: the baseline stays empty; violations are waived at the source
  // site with a reason or fixed, never buried in the baseline file.
  EXPECT_TRUE(res.baselined.empty());
}

}  // namespace
}  // namespace teeperf::lint
