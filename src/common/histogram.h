// Power-of-two bucketed latency histogram, used by the db_bench driver and
// the SPDK perf tool to report percentiles without storing every sample.
#pragma once

#include <array>

#include "common/types.h"

namespace teeperf {

// Shared power-of-two bucket math, used by LatencyHistogram below and by the
// shared-memory metric histograms in src/obs (which cannot use this class
// directly because their buckets must be atomics in a fixed shm layout).
namespace hist {
inline constexpr usize kLogBuckets = 64;
usize bucket_for(u64 v);
u64 bucket_low(usize b);
u64 bucket_high(usize b);
// Linear interpolation within the matched bucket over an externally held
// bucket array; p in [0, 100]. `lo`/`hi` clamp the result to observed bounds.
double percentile(const u64* buckets, usize n, u64 count, u64 lo, u64 hi,
                  double p);
}  // namespace hist

class LatencyHistogram {
 public:
  LatencyHistogram() = default;

  void add(u64 value);
  void merge(const LatencyHistogram& other);

  u64 count() const { return count_; }
  u64 min() const { return count_ ? min_ : 0; }
  u64 max() const { return max_; }
  double mean() const;
  // Linear interpolation within the matched bucket; p in [0, 100].
  double percentile(double p) const;

 private:
  static constexpr usize kBuckets = hist::kLogBuckets;

  std::array<u64, kBuckets> buckets_{};
  u64 count_ = 0;
  u64 sum_ = 0;
  u64 min_ = ~0ull;
  u64 max_ = 0;
};

}  // namespace teeperf
