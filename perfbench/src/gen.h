// Seeded input generators. The same seed gives byte-identical inputs; the
// program under test only ever sees what these produce.
#pragma once

#include <string>
#include <vector>

#include "analyzer/mprof.h"
#include "bench.h"
#include "core/log_format.h"
#include "drain/chunk_format.h"
#include "phoenix/phoenix.h"

namespace perfbench {

// The Phoenix string_match input, split into one contiguous slice per app
// thread (each slice keeps the four keys).
struct StringMatchApp {
  std::vector<teeperf::phoenix::StringMatchInput> slices;
  u64 words = 0;
};
StringMatchApp make_string_match(u64 words, u32 threads, u64 seed);

// analyze_merge's offline inputs: one 4-shard session with deep call trees
// (tens of frames) and wide ones (thousands of distinct folded paths), plus
// `parts` smaller per-session profiles over the same code.
struct MergeShape {
  u32 shards = 4;
  u64 entries_per_shard = 1u << 19;
  u64 chunk_entries = 1u << 15;  // per shard per chunk (the drainer default)
  u32 nodes = 3000;              // call-tree nodes: one folded path each
  u32 methods = 400;             // distinct method names
  u32 max_depth = 40;
  u32 parts = 8;
  u64 part_entries_per_shard = 1u << 15;
};

struct MergeInputs {
  std::string symbols;  // "<id>\t<name>" lines, the .sym format
  std::vector<std::vector<teeperf::drain::ShardWindow>> chunks;
  u64 entries = 0;  // session entries over all shards
  u64 calls = 0;    // of those, call entries
  std::vector<teeperf::analyzer::MergeableProfile> parts;
};
MergeInputs make_merge_inputs(const MergeShape& shape, u64 seed);

// Writes the inputs through the profiler's own serializers: chunk files at
// "<prefix>.seg.NNNN", symbols at "<prefix>.sym", part i at part_paths[i].
// Returns false on I/O failure.
bool write_merge_inputs(const MergeInputs& in, const std::string& prefix,
                        const std::vector<std::string>& part_paths);

}  // namespace perfbench
