// Bloom filter for SSTable key lookups (double-hashing construction, as in
// LevelDB's FilterPolicy): k probes derived from one 64-bit hash.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace teeperf::kvs {

class BloomFilterBuilder {
 public:
  explicit BloomFilterBuilder(usize bits_per_key) : bits_per_key_(bits_per_key) {}

  void add(std::string_view key) { hashes_.push_back(hash_key(key)); }

  // Serializes the filter: bit array followed by one byte holding k.
  std::string finish() const;

  static u64 hash_key(std::string_view key);

 private:
  usize bits_per_key_;
  std::vector<u64> hashes_;
};

// Returns true if `key` may be present in the serialized `filter`
// (never a false negative; false positives at the configured rate).
// An empty/undersized filter conservatively returns true.
bool bloom_may_contain(std::string_view filter, std::string_view key);

}  // namespace teeperf::kvs
