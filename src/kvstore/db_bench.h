// db_bench-style workload driver (the RocksDB benchmark the paper profiles
// in Figure 5). The per-operation structure mirrors the original tool:
//
//   Benchmark::ReadRandomWriteRandom
//     ├─ Stats::Start            → Stats::Now()   (clock read)
//     ├─ DB::Get / DB::Put       (the actual storage work)
//     ├─ RandomGenerator::Generate (value bytes for writes)
//     └─ Stats::FinishedSingleOp → Stats::Now()   (clock read)
//
// Stats::Now() reads the clock through the TEE system interface, so inside
// an enclave it pays the trapped-syscall cost — which is precisely why the
// paper's Figure 5 flame graph shows Stats::Now and RandomGenerator
// dominating db_bench when run under SGX.
#pragma once

#include <string>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/types.h"
#include "kvstore/db.h"

namespace teeperf::kvs::bench {

// Mirrors rocksdb::RandomGenerator: pre-builds a buffer of compressible
// random data at construction (test::CompressibleString over
// test::RandomString pieces) and hands out value-sized slices.
class RandomGenerator {
 public:
  explicit RandomGenerator(u64 seed, usize buffer_size = 1u << 20,
                           double compression_ratio = 0.5);

  std::string_view generate(usize len);

 private:
  std::string data_;
  usize pos_ = 0;
};

// Mirrors rocksdb::Stats: per-thread op accounting, with Now() as the
// clock-read choke point.
class Stats {
 public:
  // Reads the current time through tee::sys (trapped inside an enclave).
  static u64 now_ns();

  void start();               // marks op start (calls now_ns)
  void finished_single_op();  // marks op end (calls now_ns), records latency

  u64 ops() const { return ops_; }
  const LatencyHistogram& latency() const { return latency_; }

 private:
  u64 op_start_ns_ = 0;
  u64 ops_ = 0;
  LatencyHistogram latency_;
};

struct BenchConfig {
  usize num_ops = 50'000;
  usize key_space = 50'000;
  usize key_size = 16;
  usize value_size = 100;
  double read_fraction = 0.8;  // the paper's 80% read mix
  u64 seed = 42;
  // Size of the RandomGenerator's pre-built buffer (per run).
  usize generator_buffer = 1u << 20;
  // Per-op timing via Stats (the Figure 5 behaviour). Disable to measure
  // pure storage throughput.
  bool per_op_stats = true;
  // Worker threads for the multithreaded driver entry points (db_bench -t).
  usize threads = 1;
};

struct BenchResult {
  u64 ops = 0;
  u64 reads = 0;
  u64 writes = 0;
  u64 found = 0;
  double seconds = 0;
  double ops_per_sec = 0;
  LatencyHistogram latency;
};

// Random fill over the key space.
BenchResult run_fill_random(DB& db, const BenchConfig& config);
// 100% random point reads.
BenchResult run_read_random(DB& db, const BenchConfig& config);
// The paper's mix: random reads and writes, read_fraction reads.
BenchResult run_read_random_write_random(DB& db, const BenchConfig& config);
// Full forward scan through a fresh iterator (db_bench readseq); ops = keys
// visited, found = same.
BenchResult run_read_seq(DB& db, const BenchConfig& config);
// Overwrite existing random keys (db_bench overwrite).
BenchResult run_overwrite(DB& db, const BenchConfig& config);
// Delete random keys (db_bench deleterandom); found counts keys that
// existed before deletion.
BenchResult run_delete_random(DB& db, const BenchConfig& config);
// 100% reads of keys guaranteed absent — the bloom-filter fast path.
BenchResult run_read_missing(DB& db, const BenchConfig& config);
// The mixed workload across config.threads concurrent workers (num_ops is
// split among them); per-thread Stats are merged. This is the configuration
// that exercises the profiler's multithreading support (§II-C) on the
// storage substrate.
BenchResult run_read_random_write_random_mt(DB& db, const BenchConfig& config);

// db_bench key formatting: zero-padded decimal, key_size wide.
std::string make_key(u64 index, usize key_size);

}  // namespace teeperf::kvs::bench
