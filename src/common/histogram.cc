#include "common/histogram.h"

#include <algorithm>
#include <bit>

namespace teeperf {

namespace hist {

usize bucket_for(u64 v) {
  if (v == 0) return 0;
  usize b = static_cast<usize>(64 - std::countl_zero(v));
  return b < kLogBuckets ? b : kLogBuckets - 1;
}

u64 bucket_low(usize b) { return b == 0 ? 0 : (1ull << (b - 1)); }

u64 bucket_high(usize b) { return b == 0 ? 0 : ((1ull << b) - 1); }

double percentile(const u64* buckets, usize n, u64 count, u64 lo, u64 hi,
                  double p) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double target = p / 100.0 * static_cast<double>(count);
  u64 seen = 0;
  for (usize b = 0; b < n; ++b) {
    if (buckets[b] == 0) continue;
    if (static_cast<double>(seen + buckets[b]) >= target) {
      double within = (target - static_cast<double>(seen)) /
                      static_cast<double>(buckets[b]);
      double blo = static_cast<double>(bucket_low(b));
      double bhi = static_cast<double>(bucket_high(b));
      double v = blo + within * (bhi - blo);
      return std::clamp(v, static_cast<double>(lo), static_cast<double>(hi));
    }
    seen += buckets[b];
  }
  return static_cast<double>(hi);
}

}  // namespace hist

void LatencyHistogram::add(u64 value) {
  usize b = hist::bucket_for(value);
  if (b >= kBuckets) b = kBuckets - 1;
  ++buckets_[b];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (usize i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double LatencyHistogram::mean() const {
  return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::percentile(double p) const {
  return hist::percentile(buckets_.data(), kBuckets, count_, min(), max_, p);
}

}  // namespace teeperf
