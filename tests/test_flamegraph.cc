// Tests for stage #4: folded-stack format round trips, frame-tree merging,
// fraction queries and the SVG renderer.
#include <gtest/gtest.h>

#include "flamegraph/flamegraph.h"

#include <vector>

#include "core/log_format.h"

namespace teeperf::flamegraph {
namespace {

FoldedStacks sample() {
  return {
      {"main;io;read", 30},
      {"main;io;write", 10},
      {"main;compute", 60},
  };
}

// An aggregate holding sample()'s stacks, which it keeps sorted by path.
analyzer::MergeableProfile sample_profile() {
  analyzer::MergeableProfile m;
  for (const auto& [path, ticks] : sample()) m.stacks[path] = ticks;
  return m;
}

TEST(Folded, TextFormat) {
  std::string text = sample_profile().folded();
  EXPECT_EQ(text, "main;compute 60\nmain;io;read 30\nmain;io;write 10\n");
}

TEST(Folded, ParseRoundTrip) {
  analyzer::MergeableProfile m = sample_profile();
  auto parsed = parse_folded_text(m.folded());
  EXPECT_EQ(parsed, FoldedStacks(m.stacks.begin(), m.stacks.end()));
}

TEST(Folded, ParseSkipsGarbage) {
  auto parsed = parse_folded_text("ok 5\nno_value\nbad nan\n x 7\n");
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].first, "ok");
  EXPECT_EQ(parsed[1].second, 7u);
}

TEST(FrameTree, MergesCommonPrefixes) {
  Frame root = build_frame_tree(sample());
  EXPECT_EQ(root.value, 100u);
  ASSERT_EQ(root.children.size(), 1u);
  const Frame& main_f = root.children[0];
  EXPECT_EQ(main_f.name, "main");
  EXPECT_EQ(main_f.value, 100u);
  ASSERT_EQ(main_f.children.size(), 2u);  // compute, io — sorted by name
  EXPECT_EQ(main_f.children[0].name, "compute");
  EXPECT_EQ(main_f.children[0].self, 60u);
  EXPECT_EQ(main_f.children[1].name, "io");
  EXPECT_EQ(main_f.children[1].value, 40u);
  EXPECT_EQ(main_f.children[1].self, 0u);
}

TEST(FrameTree, FindFrame) {
  Frame root = build_frame_tree(sample());
  const Frame* io = find_frame(root, "io");
  ASSERT_NE(io, nullptr);
  EXPECT_EQ(io->value, 40u);
  EXPECT_EQ(find_frame(root, "missing"), nullptr);
}

TEST(FrameTree, FrameFraction) {
  Frame root = build_frame_tree(sample());
  EXPECT_DOUBLE_EQ(frame_fraction(root, "io"), 0.4);
  EXPECT_DOUBLE_EQ(frame_fraction(root, "compute"), 0.6);
  EXPECT_DOUBLE_EQ(frame_fraction(root, "main"), 1.0);
  EXPECT_DOUBLE_EQ(frame_fraction(root, "nothing"), 0.0);
}

TEST(FrameTree, RepeatedFrameNameSummed) {
  FoldedStacks stacks{{"a;hot", 10}, {"b;hot", 20}, {"b;cold", 70}};
  Frame root = build_frame_tree(stacks);
  EXPECT_DOUBLE_EQ(frame_fraction(root, "hot"), 0.3);
}

TEST(FrameTree, EmptyInput) {
  Frame root = build_frame_tree({});
  EXPECT_EQ(root.value, 0u);
  EXPECT_TRUE(root.children.empty());
  EXPECT_DOUBLE_EQ(frame_fraction(root, "x"), 0.0);
}

TEST(Svg, ContainsFramesAndTitle) {
  SvgOptions opt;
  opt.title = "Unit Flame";
  std::string svg = render_svg(sample(), opt);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("Unit Flame"), std::string::npos);
  EXPECT_NE(svg.find("compute"), std::string::npos);
  EXPECT_NE(svg.find("30 ticks"), std::string::npos);  // tooltip
}

TEST(Svg, EscapesXml) {
  FoldedStacks stacks{{"operator<<;a<b>&c", 10}};
  std::string svg = render_svg(stacks);
  EXPECT_EQ(svg.find("a<b>"), std::string::npos);
  EXPECT_NE(svg.find("&lt;"), std::string::npos);
  EXPECT_NE(svg.find("&amp;"), std::string::npos);
}

TEST(Svg, DeterministicOutput) {
  EXPECT_EQ(render_svg(sample()), render_svg(sample()));
  // Input order must not matter (children sorted by name).
  FoldedStacks stacks = sample();
  FoldedStacks reversed(stacks.rbegin(), stacks.rend());
  EXPECT_EQ(render_svg(stacks), render_svg(reversed));
}

TEST(Svg, EmptyStacksStillValidDocument) {
  std::string svg = render_svg({});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, DropsSubPixelFrames) {
  FoldedStacks stacks{{"wide", 1'000'000}, {"tiny", 1}};
  SvgOptions opt;
  opt.width = 1000;  // "tiny" is 0.001 px
  std::string svg = render_svg(stacks, opt);
  EXPECT_NE(svg.find("wide"), std::string::npos);
  EXPECT_EQ(svg.find("tiny"), std::string::npos);
}

// --- timeline renderer ---------------------------------------------------------

analyzer::Profile two_thread_profile() {
  static std::vector<u8> buf(ProfileLog::bytes_for(64));
  ProfileLog log;
  log.init(buf.data(), buf.size(), 1, log_flags::kActive);
  log.append(EventKind::kCall, 0x1, 0, 0);
  log.append(EventKind::kCall, 0x2, 0, 10);
  log.append(EventKind::kReturn, 0x2, 0, 60);
  log.append(EventKind::kReturn, 0x1, 0, 100);
  log.append(EventKind::kCall, 0x3, 1, 20);
  log.append(EventKind::kReturn, 0x3, 1, 90);
  return analyzer::Profile::from_log(
      log, {{0x1, "tmain"}, {0x2, "tchild<x>"}, {0x3, "tworker"}}, 1.0);
}

TEST(Timeline, RendersLanesPerThread) {
  auto profile = two_thread_profile();
  std::string svg = render_timeline_svg(profile, {.title = "tl test"});
  EXPECT_NE(svg.find("tid 0"), std::string::npos);
  EXPECT_NE(svg.find("tid 1"), std::string::npos);
  EXPECT_NE(svg.find("tmain"), std::string::npos);
  EXPECT_NE(svg.find("tworker"), std::string::npos);
  EXPECT_NE(svg.find("tl test"), std::string::npos);
}

TEST(Timeline, EscapesNames) {
  auto profile = two_thread_profile();
  std::string svg = render_timeline_svg(profile);
  EXPECT_EQ(svg.find("tchild<x>"), std::string::npos);
  EXPECT_NE(svg.find("tchild&lt;x&gt;"), std::string::npos);
}

TEST(Timeline, EmptyProfileValidSvg) {
  analyzer::Profile empty;
  std::string svg = render_timeline_svg(empty);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

}  // namespace
}  // namespace teeperf::flamegraph
