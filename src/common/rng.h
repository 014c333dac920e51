// Deterministic, fast pseudo-random generators used by workload generators
// and property tests. Not cryptographic.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/types.h"

namespace teeperf {

// xorshift64* — one multiply and three shifts per number; good enough
// statistical quality for workload generation and far cheaper than
// <random> engines on the hot path.
class Xorshift64 {
 public:
  explicit Xorshift64(u64 seed = 0x9e3779b97f4a7c15ull)
      : state_(seed ? seed : 0x9e3779b97f4a7c15ull) {}

  u64 next() {
    u64 x = state_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state_ = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  // Uniform in [0, bound). bound must be > 0.
  u64 next_below(u64 bound) { return next() % bound; }

  // Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  bool next_bool(double p_true = 0.5) { return next_double() < p_true; }

  // Lowercase ASCII string of exactly `len` characters.
  std::string next_word(usize len) {
    std::string s(len, 'a');
    for (auto& c : s) c = static_cast<char>('a' + next_below(26));
    return s;
  }

  void reseed(u64 seed) { state_ = seed ? seed : 0x9e3779b97f4a7c15ull; }

 private:
  u64 state_;
};

// Skewed key generator used by the db_bench-style drivers: picks keys with a
// simple power-law bias so that caches and bloom filters see realistic hit
// patterns.
class SkewedPicker {
 public:
  SkewedPicker(u64 space, double skew, u64 seed)
      : space_(space ? space : 1), skew_(skew), rng_(seed) {}

  u64 next() {
    if (skew_ <= 0.0) return rng_.next_below(space_);
    // Raise a uniform draw to a power > 1 to concentrate mass near 0.
    double u = rng_.next_double();
    double biased = 1.0;
    for (double s = skew_; s > 0.0; s -= 1.0) {
      biased *= (s >= 1.0) ? u : (u * s + (1.0 - s));
    }
    u64 v = static_cast<u64>(biased * static_cast<double>(space_));
    return v >= space_ ? space_ - 1 : v;
  }

 private:
  u64 space_;
  double skew_;
  Xorshift64 rng_;
};

}  // namespace teeperf
