#include "perfsim/sampler.h"

#include <signal.h>
#include <sys/time.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "core/runtime.h"
#include "obs/metric_names.h"
#include "obs/session.h"

namespace teeperf::perfsim {
namespace {

// The active profiler; the SIGPROF handler may only touch this pointer and
// async-signal-safe state inside it.
std::atomic<SamplingProfiler*> g_active{nullptr};

}  // namespace

void sigprof_handler(int) {
  SamplingProfiler* p = g_active.load(std::memory_order_acquire);
  if (!p) return;

  if (p->count_.load(std::memory_order_relaxed) >= p->options_.max_samples) {
    p->dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  u64 frames[512];
  u64 tid = 0;
  int depth = runtime::capture_own_stack(frames, p->options_.max_depth, &tid);
  usize record = 2 + static_cast<usize>(depth);

  usize at = p->cursor_.fetch_add(record, std::memory_order_relaxed);
  if (at + record > p->arena_.size()) {
    p->dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  p->arena_[at] = tid;
  p->arena_[at + 1] = static_cast<u64>(depth);
  for (int i = 0; i < depth; ++i) p->arena_[at + 2 + static_cast<usize>(i)] = frames[i];
  p->count_.fetch_add(1, std::memory_order_relaxed);
}

SamplingProfiler::SamplingProfiler(const SamplerOptions& options)
    : options_(options) {
  // Worst-case record size per sample keeps the arena allocation simple.
  arena_.resize(options_.max_samples *
                (2 + static_cast<usize>(options_.max_depth)));
}

SamplingProfiler::~SamplingProfiler() { stop(); }

bool SamplingProfiler::start() {
  SamplingProfiler* expected = nullptr;
  if (!g_active.compare_exchange_strong(expected, this, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return false;
  }
  cursor_.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);

  struct sigaction sa {};
  sa.sa_handler = sigprof_handler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return false;
  }

  itimerval timer{};
  u64 usec = options_.frequency_hz ? 1'000'000 / options_.frequency_hz : 0;
  if (usec == 0) usec = 1;
  timer.it_interval.tv_sec = static_cast<time_t>(usec / 1'000'000);
  timer.it_interval.tv_usec = static_cast<suseconds_t>(usec % 1'000'000);
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_active.store(nullptr, std::memory_order_release);
    return false;
  }
  running_ = true;
  if (obs::SelfTelemetry* tel = obs::telemetry()) {
    tel->registry().gauge(obs::metric_names::kSamplerFrequencyHz).set(options_.frequency_hz);
    tel->journal().record(obs::EventType::kSamplerStart, options_.frequency_hz);
  }
  return true;
}

void SamplingProfiler::stop() {
  if (!running_) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  struct sigaction sa {};
  sa.sa_handler = SIG_IGN;
  sigaction(SIGPROF, &sa, nullptr);
  g_active.store(nullptr, std::memory_order_release);
  running_ = false;
  if (obs::SelfTelemetry* tel = obs::telemetry()) {
    obs::MetricsRegistry& reg = tel->registry();
    reg.gauge(obs::metric_names::kSamplerSamples).set(sample_count());
    reg.gauge(obs::metric_names::kSamplerDropped).set(dropped());
    tel->journal().record(obs::EventType::kSamplerStop, sample_count(),
                          dropped());
  }
}

bool SamplingProfiler::running() const { return running_; }

usize SamplingProfiler::sample_count() const {
  return count_.load(std::memory_order_relaxed);
}

usize SamplingProfiler::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<Sample> SamplingProfiler::samples() const {
  std::vector<Sample> out;
  usize end = std::min(cursor_.load(std::memory_order_acquire), arena_.size());
  usize at = 0;
  while (at + 2 <= end) {
    Sample s;
    s.tid = arena_[at];
    s.depth = static_cast<u16>(arena_[at + 1]);
    if (at + 2 + s.depth > end) break;  // partially-reserved tail record
    s.frames = arena_.data() + at + 2;
    out.push_back(s);
    at += 2 + s.depth;
  }
  return out;
}

namespace {

std::vector<std::pair<u64, usize>> sorted_counts(
    const std::unordered_map<u64, usize>& counts) {
  std::vector<std::pair<u64, usize>> out(counts.begin(), counts.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace

std::vector<std::pair<u64, usize>> SamplingProfiler::leaf_counts() const {
  std::unordered_map<u64, usize> counts;
  for (const Sample& s : samples()) {
    if (s.depth > 0) ++counts[s.frames[s.depth - 1]];
  }
  return sorted_counts(counts);
}

std::vector<std::pair<u64, usize>> SamplingProfiler::inclusive_counts() const {
  std::unordered_map<u64, usize> counts;
  for (const Sample& s : samples()) {
    // A frame appearing twice (recursion) still counts once per sample.
    for (u16 i = 0; i < s.depth; ++i) {
      bool seen = false;
      for (u16 j = 0; j < i; ++j) {
        if (s.frames[j] == s.frames[i]) {
          seen = true;
          break;
        }
      }
      if (!seen) ++counts[s.frames[i]];
    }
  }
  return sorted_counts(counts);
}

}  // namespace teeperf::perfsim

namespace teeperf::perfsim {

std::vector<std::pair<std::string, u64>> SamplingProfiler::folded_stacks(
    const std::function<std::string(u64)>& name_of) const {
  std::unordered_map<std::string, u64> folded;
  for (const Sample& s : samples()) {
    if (s.depth == 0) continue;
    std::string path;
    for (u16 i = 0; i < s.depth; ++i) {
      if (i) path += ';';
      path += name_of(s.frames[i]);
    }
    ++folded[path];
  }
  std::vector<std::pair<std::string, u64>> out(folded.begin(), folded.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace teeperf::perfsim

namespace teeperf::perfsim {

std::string SamplingProfiler::flat_report(
    const std::function<std::string(u64)>& name_of, usize limit) const {
  auto leaves = leaf_counts();
  usize total = 0;
  for (auto& [id, n] : leaves) total += n;
  std::string out = "Samples: " + std::to_string(sample_count()) + " (" +
                    std::to_string(dropped()) + " dropped)\n";
  char line[256];
  std::snprintf(line, sizeof line, "%8s %8s  %s\n", "overhead", "samples",
                "symbol");
  out += line;
  usize shown = 0;
  for (auto& [id, n] : leaves) {
    if (shown++ >= limit) break;
    double pct = total ? 100.0 * static_cast<double>(n) /
                             static_cast<double>(total)
                       : 0;
    std::snprintf(line, sizeof line, "%7.2f%% %8zu  %s\n", pct, n,
                  name_of(id).c_str());
    out += line;
  }
  return out;
}

}  // namespace teeperf::perfsim
