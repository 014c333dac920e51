#include "kvstore/db_bench.h"

#include <thread>

#include "common/spin.h"
#include "core/scope.h"
#include "tee/enclave.h"
#include "tee/sysapi.h"

namespace teeperf::kvs::bench {
namespace {

// Mirrors rocksdb::test::RandomString: `len` random printable bytes.
void random_string(Xorshift64& rng, usize len, std::string* dst) {
  TEEPERF_SCOPE("kvs::test::RandomString");
  for (usize i = 0; i < len; ++i) {
    dst->push_back(static_cast<char>(' ' + rng.next_below(95)));
  }
}

// Mirrors rocksdb::test::CompressibleString: generate a short random piece
// and repeat it until `len` bytes, giving the requested compression ratio.
void compressible_string(Xorshift64& rng, double compressed_fraction, usize len,
                         std::string* dst) {
  TEEPERF_SCOPE("kvs::test::CompressibleString");
  usize raw = static_cast<usize>(static_cast<double>(len) * compressed_fraction);
  if (raw < 1) raw = 1;
  std::string piece;
  random_string(rng, raw, &piece);
  // Appends exactly `len` bytes by repeating the random piece.
  usize target = dst->size() + len;
  while (dst->size() < target) {
    dst->append(piece.data(), std::min(piece.size(), target - dst->size()));
  }
}

}  // namespace

RandomGenerator::RandomGenerator(u64 seed, usize buffer_size,
                                 double compression_ratio) {
  TEEPERF_SCOPE("kvs::RandomGenerator::RandomGenerator");
  Xorshift64 rng(seed);
  data_.reserve(buffer_size);
  // Built in ~100-value pieces, like the original (which loops
  // CompressibleString until 1 MiB is accumulated).
  while (data_.size() < buffer_size) {
    compressible_string(rng, compression_ratio, 100, &data_);
  }
  // Construction writes the buffer into enclave memory: pay the MEE.
  if (tee::Enclave::inside()) {
    tee::Enclave::current()->charge_mee(data_.size(), /*random=*/false);
  }
}

std::string_view RandomGenerator::generate(usize len) {
  TEEPERF_SCOPE("kvs::RandomGenerator::Generate");
  if (len > data_.size()) len = data_.size();
  if (pos_ + len > data_.size()) pos_ = 0;
  std::string_view out(data_.data() + pos_, len);
  pos_ += len;
  return out;
}

u64 Stats::now_ns() {
  TEEPERF_SCOPE("kvs::Stats::Now");
  return tee::sys::clock_gettime_ns();
}

void Stats::start() {
  TEEPERF_SCOPE("kvs::Stats::Start");
  op_start_ns_ = now_ns();
}

void Stats::finished_single_op() {
  TEEPERF_SCOPE("kvs::Stats::FinishedSingleOp");
  u64 end = now_ns();
  latency_.add(end >= op_start_ns_ ? end - op_start_ns_ : 0);
  ++ops_;
}

std::string make_key(u64 index, usize key_size) {
  std::string digits = std::to_string(index);
  std::string key(key_size > digits.size() ? key_size - digits.size() : 0, '0');
  key += digits;
  return key;
}

namespace {

BenchResult finish_result(const Stats& stats, u64 t0, u64 t1, u64 reads, u64 writes,
                          u64 found) {
  BenchResult r;
  r.ops = reads + writes;
  r.reads = reads;
  r.writes = writes;
  r.found = found;
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  r.ops_per_sec = r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
  r.latency = stats.latency();
  return r;
}

}  // namespace

BenchResult run_fill_random(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::FillRandom");
  RandomGenerator gen(config.seed, config.generator_buffer);
  Xorshift64 rng(config.seed ^ 0x1234567);
  Stats stats;
  WriteOptions wopts;
  u64 t0 = monotonic_ns();
  for (usize i = 0; i < config.num_ops; ++i) {
    if (config.per_op_stats) stats.start();
    u64 k = rng.next_below(config.key_space);
    db.put(wopts, make_key(k, config.key_size), gen.generate(config.value_size));
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), 0, config.num_ops, 0);
}

BenchResult run_read_random(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::ReadRandom");
  Xorshift64 rng(config.seed ^ 0x7654321);
  Stats stats;
  ReadOptions ropts;
  std::string value;
  u64 found = 0;
  u64 t0 = monotonic_ns();
  for (usize i = 0; i < config.num_ops; ++i) {
    if (config.per_op_stats) stats.start();
    u64 k = rng.next_below(config.key_space);
    if (db.get(ropts, make_key(k, config.key_size), &value).is_ok()) ++found;
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), config.num_ops, 0, found);
}

BenchResult run_read_random_write_random(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::ReadRandomWriteRandom");
  RandomGenerator gen(config.seed, config.generator_buffer);
  Xorshift64 rng(config.seed ^ 0xfeedface);
  Stats stats;
  ReadOptions ropts;
  WriteOptions wopts;
  std::string value;
  u64 reads = 0, writes = 0, found = 0;
  u64 t0 = monotonic_ns();
  for (usize i = 0; i < config.num_ops; ++i) {
    if (config.per_op_stats) stats.start();
    u64 k = rng.next_below(config.key_space);
    if (rng.next_double() < config.read_fraction) {
      ++reads;
      if (db.get(ropts, make_key(k, config.key_size), &value).is_ok()) ++found;
    } else {
      ++writes;
      db.put(wopts, make_key(k, config.key_size), gen.generate(config.value_size));
    }
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), reads, writes, found);
}

}  // namespace teeperf::kvs::bench

namespace teeperf::kvs::bench {

BenchResult run_read_seq(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::ReadSeq");
  Stats stats;
  u64 visited = 0;
  u64 t0 = monotonic_ns();
  auto it = db.new_iterator({});
  for (it->seek_to_first(); it->valid(); it->next()) {
    if (config.per_op_stats) stats.start();
    ++visited;
    // Touch the value so the scan is not optimized into pure iteration.
    if (!it->value().empty() && it->value()[0] == '\xff') ++visited;
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), visited, 0, visited);
}

BenchResult run_overwrite(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::Overwrite");
  RandomGenerator gen(config.seed ^ 0xaa, config.generator_buffer);
  Xorshift64 rng(config.seed ^ 0x77);
  Stats stats;
  WriteOptions wopts;
  u64 t0 = monotonic_ns();
  for (usize i = 0; i < config.num_ops; ++i) {
    if (config.per_op_stats) stats.start();
    u64 k = rng.next_below(config.key_space);
    db.put(wopts, make_key(k, config.key_size), gen.generate(config.value_size));
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), 0, config.num_ops, 0);
}

BenchResult run_delete_random(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::DeleteRandom");
  Xorshift64 rng(config.seed ^ 0xdd);
  Stats stats;
  WriteOptions wopts;
  ReadOptions ropts;
  std::string value;
  u64 found = 0;
  u64 t0 = monotonic_ns();
  for (usize i = 0; i < config.num_ops; ++i) {
    if (config.per_op_stats) stats.start();
    std::string key = make_key(rng.next_below(config.key_space), config.key_size);
    if (db.get(ropts, key, &value).is_ok()) ++found;
    db.remove(wopts, key);
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), 0, config.num_ops, found);
}

BenchResult run_read_missing(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::ReadMissing");
  Xorshift64 rng(config.seed ^ 0x99);
  Stats stats;
  ReadOptions ropts;
  std::string value;
  u64 found = 0;
  u64 t0 = monotonic_ns();
  for (usize i = 0; i < config.num_ops; ++i) {
    if (config.per_op_stats) stats.start();
    // "miss." prefix never collides with make_key's zero-padded digits.
    std::string key = "miss." + std::to_string(rng.next());
    if (db.get(ropts, key, &value).is_ok()) ++found;
    if (config.per_op_stats) stats.finished_single_op();
  }
  return finish_result(stats, t0, monotonic_ns(), config.num_ops, 0, found);
}

}  // namespace teeperf::kvs::bench

namespace teeperf::kvs::bench {

BenchResult run_read_random_write_random_mt(DB& db, const BenchConfig& config) {
  TEEPERF_SCOPE("kvs::Benchmark::ReadRandomWriteRandomMT");
  usize workers = config.threads ? config.threads : 1;
  usize per_worker = config.num_ops / workers;

  struct WorkerOut {
    u64 reads = 0, writes = 0, found = 0;
    LatencyHistogram latency;
  };
  std::vector<WorkerOut> outs(workers);

  auto body = [&](usize w) {
    TEEPERF_SCOPE("kvs::Benchmark::ThreadBody");
    RandomGenerator gen(config.seed ^ w, config.generator_buffer);
    Xorshift64 rng(config.seed ^ (w * 2654435761ull) ^ 0xfeedface);
    Stats stats;
    ReadOptions ropts;
    WriteOptions wopts;
    std::string value;
    WorkerOut& out = outs[w];
    for (usize i = 0; i < per_worker; ++i) {
      if (config.per_op_stats) stats.start();
      u64 k = rng.next_below(config.key_space);
      if (rng.next_double() < config.read_fraction) {
        ++out.reads;
        if (db.get(ropts, make_key(k, config.key_size), &value).is_ok()) {
          ++out.found;
        }
      } else {
        ++out.writes;
        db.put(wopts, make_key(k, config.key_size),
               gen.generate(config.value_size));
      }
      if (config.per_op_stats) stats.finished_single_op();
    }
    out.latency = stats.latency();
  };

  u64 t0 = monotonic_ns();
  std::vector<std::thread> threads;
  for (usize w = 1; w < workers; ++w) threads.emplace_back(body, w);
  body(0);
  for (auto& t : threads) t.join();
  u64 t1 = monotonic_ns();

  BenchResult r;
  for (const WorkerOut& out : outs) {
    r.reads += out.reads;
    r.writes += out.writes;
    r.found += out.found;
    r.latency.merge(out.latency);
  }
  r.ops = r.reads + r.writes;
  r.seconds = static_cast<double>(t1 - t0) / 1e9;
  r.ops_per_sec = r.seconds > 0 ? static_cast<double>(r.ops) / r.seconds : 0;
  return r;
}

}  // namespace teeperf::kvs::bench
