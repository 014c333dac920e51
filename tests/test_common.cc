// Unit tests for src/common: crc32c, rng, string utilities, histogram,
// spin calibration, file helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_internal.h"
#include "common/fileutil.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/spin.h"
#include "common/stringutil.h"
#include "bench/bench_util.h"

namespace teeperf {
namespace {

// --- crc32c -----------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // RFC 3720 test vectors for CRC-32C.
  u8 zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, 32), 0x8a9136aau);

  u8 ones[32];
  std::fill(std::begin(ones), std::end(ones), 0xff);
  EXPECT_EQ(crc32c(ones, 32), 0x62a8ab43u);

  u8 inc[32];
  for (int i = 0; i < 32; ++i) inc[i] = static_cast<u8>(i);
  EXPECT_EQ(crc32c(inc, 32), 0x46dd794eu);
}

TEST(Crc32c, ExtendMatchesWholeBuffer) {
  const char* data = "hello, trusted world";
  usize n = 20;
  u32 whole = crc32c(data, n);
  u32 split = crc32c_extend(crc32c(data, 7), data + 7, n - 7);
  EXPECT_EQ(whole, split);
}

TEST(Crc32c, MaskRoundTrip) {
  for (u32 v : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(crc32c_unmask(crc32c_mask(v)), v);
    EXPECT_NE(crc32c_mask(v), v);  // masking must change the value
  }
}

TEST(Crc32c, EmptyInput) { EXPECT_EQ(crc32c(nullptr, 0), 0u); }

// crc32c_extend runs the SSE4.2 instruction where the CPU has it and the
// byte table elsewhere; every stored checksum (chunks, .mprof, WAL,
// SSTables) depends on the two agreeing bit for bit.
using Extend = u32 (*)(u32, const void*, usize);

std::vector<std::pair<const char*, Extend>> crc_paths() {
  std::vector<std::pair<const char*, Extend>> paths = {
      {"portable", crc32c_impl::extend_portable}};
  if (crc32c_impl::hardware_available()) {
    paths.push_back({"hardware", crc32c_impl::extend_hardware});
  }
  return paths;
}

std::vector<u8> crc_test_bytes(usize n) {
  std::vector<u8> buf(n);
  Xorshift64 rng(0xc5c32c);
  for (u8& b : buf) b = static_cast<u8>(rng.next());
  return buf;
}

TEST(Crc32c, KnownVectorsOnEveryPath) {
  u8 zeros[32] = {};
  u8 ones[32];
  std::fill(std::begin(ones), std::end(ones), 0xff);
  u8 inc[32], dec[32];
  for (int i = 0; i < 32; ++i) {
    inc[i] = static_cast<u8>(i);
    dec[i] = static_cast<u8>(31 - i);
  }
  for (auto [name, extend] : crc_paths()) {
    EXPECT_EQ(extend(0, zeros, 32), 0x8a9136aau) << name;
    EXPECT_EQ(extend(0, ones, 32), 0x62a8ab43u) << name;
    EXPECT_EQ(extend(0, inc, 32), 0x46dd794eu) << name;
    EXPECT_EQ(extend(0, dec, 32), 0x113fdb5cu) << name;
    EXPECT_EQ(extend(0, "123456789", 9), 0xe3069283u) << name;
  }
}

TEST(Crc32c, HardwareMatchesPortableAtEveryLengthAndAlignment) {
  if (!crc32c_impl::hardware_available()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  std::vector<u8> buf = crc_test_bytes(1024 + 8);
  for (usize off = 0; off < 8; ++off) {
    for (usize n = 0; n <= 1024; ++n) {
      const u8* p = buf.data() + off;
      ASSERT_EQ(crc32c_impl::extend_hardware(0, p, n),
                crc32c_impl::extend_portable(0, p, n))
          << "offset " << off << " length " << n;
      // A nonzero running crc, as crc32c_extend continues one.
      ASSERT_EQ(crc32c_impl::extend_hardware(0x9e3779b9u, p, n),
                crc32c_impl::extend_portable(0x9e3779b9u, p, n))
          << "offset " << off << " length " << n;
    }
  }
}

TEST(Crc32c, ExtendAgreesAtEverySplitPoint) {
  std::vector<u8> buf = crc_test_bytes(1024 + 8);
  for (auto [name, extend] : crc_paths()) {
    for (usize off = 0; off < 8; ++off) {
      const u8* p = buf.data() + off;
      u32 whole = extend(0, p, 1024);
      EXPECT_EQ(whole, crc32c(p, 1024)) << name << " offset " << off;
      for (usize k = 0; k <= 1024; ++k) {
        ASSERT_EQ(extend(extend(0, p, k), p + k, 1024 - k), whole)
            << name << " offset " << off << " split " << k;
      }
    }
  }
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, Deterministic) {
  Xorshift64 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xorshift64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedDoesNotStick) {
  Xorshift64 r(0);
  EXPECT_NE(r.next(), 0u);
  EXPECT_NE(r.next(), r.next());
}

TEST(Rng, NextBelowInRange) {
  Xorshift64 r(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Xorshift64 r(4);
  for (int i = 0; i < 1000; ++i) {
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformishBuckets) {
  Xorshift64 r(5);
  int buckets[10] = {};
  for (int i = 0; i < 100000; ++i) ++buckets[r.next_below(10)];
  for (int b : buckets) {
    EXPECT_GT(b, 8500);
    EXPECT_LT(b, 11500);
  }
}

TEST(Rng, WordHasRequestedLength) {
  Xorshift64 r(6);
  for (usize len : {1u, 5u, 30u}) {
    std::string w = r.next_word(len);
    EXPECT_EQ(w.size(), len);
    for (char c : w) EXPECT_TRUE(c >= 'a' && c <= 'z');
  }
}

TEST(Rng, SkewedPickerStaysInRange) {
  SkewedPicker p(100, 2.0, 9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(p.next(), 100u);
}

TEST(Rng, SkewedPickerActuallySkews) {
  SkewedPicker skewed(1000, 3.0, 11);
  u64 low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (skewed.next() < 100) ++low;
  }
  // With skew 3, far more than the uniform 10% land in the lowest decile.
  EXPECT_GT(low, 2500u);
}

// --- stringutil ----------------------------------------------------------------

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(0), "0.0 B");
  EXPECT_EQ(human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(human_bytes(874.0 * 1024 * 1024), "874.0 MiB");
}

TEST(StringUtil, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(223808), "223,808");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(StringUtil, Split) {
  auto parts = split("a;b;;c", ';');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, SplitEmpty) {
  auto parts = split("", ';');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("teeperf.log", "teeperf"));
  EXPECT_FALSE(starts_with("tee", "teeperf"));
  EXPECT_TRUE(ends_with("run.sym", ".sym"));
  EXPECT_FALSE(ends_with("sym", ".sym"));
}

TEST(StringUtil, Ellipsize) {
  EXPECT_EQ(ellipsize("short", 10), "short");
  EXPECT_EQ(ellipsize("averylongname", 6), "aver..");
}

TEST(StringUtil, Format) {
  EXPECT_EQ(str_format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(str_format("%s", ""), "");
}

// --- histogram -------------------------------------------------------------------

TEST(Histogram, EmptyIsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 0.0);
}

TEST(Histogram, BasicStats) {
  LatencyHistogram h;
  for (u64 v : {10ull, 20ull, 30ull, 40ull}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 40u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(Histogram, PercentilesOrdered) {
  LatencyHistogram h;
  Xorshift64 r(1);
  for (int i = 0; i < 10000; ++i) h.add(r.next_below(100000));
  double p50 = h.percentile(50), p90 = h.percentile(90), p99 = h.percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  EXPECT_GE(p50, static_cast<double>(h.min()));
}

TEST(Histogram, MergeAddsCounts) {
  LatencyHistogram a, b;
  a.add(5);
  a.add(10);
  b.add(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.min(), 5u);
}

TEST(Histogram, ZeroValue) {
  LatencyHistogram h;
  h.add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0u);
}

// --- spin ---------------------------------------------------------------------

TEST(Spin, CalibrationPositive) { EXPECT_GT(spin_iters_per_us(), 0.0); }

TEST(Spin, SpinRoughlyHonorsDuration) {
  // Generous bounds: single-core CI machines get preempted.
  u64 t0 = monotonic_ns();
  spin_for_ns(2'000'000);
  u64 elapsed = monotonic_ns() - t0;
  EXPECT_GE(elapsed, 500'000u);  // at least 25% of the request
}

TEST(Spin, ZeroIsInstant) {
  u64 t0 = monotonic_ns();
  spin_for_ns(0);
  EXPECT_LT(monotonic_ns() - t0, 1'000'000u);
}

TEST(Spin, MonotonicClockAdvances) {
  u64 a = monotonic_ns();
  u64 b = monotonic_ns();
  EXPECT_GE(b, a);
}

// --- fileutil -----------------------------------------------------------------

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = make_temp_dir("teeperf_fut_"); }
  void TearDown() override { remove_tree(dir_); }
  std::string dir_;
};

TEST_F(FileUtilTest, WriteReadRoundTrip) {
  std::string path = dir_ + "/a.bin";
  std::string data = "hello\0world";
  data.push_back('\0');
  ASSERT_TRUE(write_file(path, data));
  auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST_F(FileUtilTest, ReadMissingFile) {
  EXPECT_FALSE(read_file(dir_ + "/nope").has_value());
}

TEST_F(FileUtilTest, AppendAccumulates) {
  std::string path = dir_ + "/log";
  ASSERT_TRUE(append_file(path, "ab"));
  ASSERT_TRUE(append_file(path, "cd"));
  EXPECT_EQ(*read_file(path), "abcd");
}

// A short fwrite (disk full) must still close the file: every failed call
// used to leak one FILE and its descriptor.
TEST_F(FileUtilTest, FailedWritesLeakNoDescriptors) {
  auto open_fds = [] {
    usize n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      ++n;
    }
    return n;
  };
  if (!file_exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::string block(64 << 10, 'x');
  usize before = open_fds();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(write_file("/dev/full", block));
    EXPECT_FALSE(append_file("/dev/full", block));
  }
  EXPECT_EQ(open_fds(), before);
}

TEST_F(FileUtilTest, ExistsAndRemove) {
  std::string path = dir_ + "/f";
  EXPECT_FALSE(file_exists(path));
  ASSERT_TRUE(write_file(path, "x"));
  EXPECT_TRUE(file_exists(path));
  EXPECT_TRUE(remove_file(path));
  EXPECT_FALSE(file_exists(path));
}

TEST_F(FileUtilTest, MakeDirsNested) {
  std::string nested = dir_ + "/a/b/c";
  EXPECT_TRUE(make_dirs(nested));
  EXPECT_TRUE(write_file(nested + "/f", "x"));
}

TEST_F(FileUtilTest, TempDirsUnique) {
  std::string a = make_temp_dir("teeperf_u_");
  std::string b = make_temp_dir("teeperf_u_");
  EXPECT_NE(a, b);
  remove_tree(a);
  remove_tree(b);
}

// --- bench harness helpers ------------------------------------------------------

TEST(BenchUtil, Geomean) {
  EXPECT_DOUBLE_EQ(benchharness::geomean({}), 0.0);
  EXPECT_NEAR(benchharness::geomean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_NEAR(benchharness::geomean({1.9, 1.9, 1.9}), 1.9, 1e-9);
}

TEST(BenchUtil, MinOf) {
  EXPECT_DOUBLE_EQ(benchharness::min_of({}), 0.0);
  EXPECT_DOUBLE_EQ(benchharness::min_of({3.0, 1.5, 2.0}), 1.5);
}

TEST(BenchUtil, EnvKnobs) {
  setenv("TEEPERF_REPEATS", "7", 1);
  EXPECT_EQ(benchharness::repeats(3), 7u);
  setenv("TEEPERF_REPEATS", "garbage", 1);
  EXPECT_EQ(benchharness::repeats(3), 3u);
  unsetenv("TEEPERF_REPEATS");
  EXPECT_EQ(benchharness::repeats(3), 3u);

  setenv("TEEPERF_SCALE", "4", 1);
  EXPECT_EQ(benchharness::scale(1), 4u);
  unsetenv("TEEPERF_SCALE");
}

}  // namespace
}  // namespace teeperf
