// Deterministic fault injection (the hostile-substrate test harness).
//
// The paper's robustness story (§II-B, §IV) is that the analyzer tells the
// truth even when the log was written inside a hostile substrate: writers
// die mid-append, dumps arrive truncated or bit-flipped, counters stall.
// Related systems make the same assumption explicit (TEEMon scrapes state
// it expects to be partially stale; Triad's trusted timestamps are
// fault-prone by design). This registry lets tests and the CLI *produce*
// those conditions on demand, deterministically:
//
//   - every fault point has a stable string name ("dump.torn",
//     "counter.stall", ...; the full list is in TESTING.md);
//   - a point can be armed to trip on the Nth hit (optionally sticky),
//     with a seeded probability, or externally through the obs region
//     (gauge "fault.arm.<name>", see obs/session.cc);
//   - all randomness (probability draws, byte offsets for truncation and
//     bit flips) derives from one seed, so a failing scenario replays
//     exactly from its seed.
//
// Instrumented code calls fault::fires("name") at the fault site and acts
// out the failure there (return false, truncate the buffer, raise SIGKILL,
// ...). When nothing is armed anywhere — the production state — fires() is
// a single relaxed atomic load, so fault points may sit on warm paths.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace teeperf::fault {

enum class Mode : u32 {
  kOff = 0,
  kNth,          // fire when the hit count reaches n (1-based)
  kProbability,  // fire each hit with probability p (seeded)
};

struct Spec {
  Mode mode = Mode::kOff;
  u64 n = 0;           // kNth: the hit number that fires
  double p = 0.0;      // kProbability
  bool sticky = false; // kNth: keep firing on every hit >= n
};

class Registry {
 public:
  // The process-global registry every fault point consults.
  static Registry& instance();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Arms `name`. Points do not need to pre-exist; arming an unknown name
  // creates it (so tests can arm points added later without registration
  // ceremony).
  void arm(const std::string& name, Spec spec);
  // Disarms everything and clears hit/fire counts. Seed is kept.
  void reset();

  void set_seed(u64 seed);
  u64 seed() const;

  // Parses and arms a spec string:
  //   "dump.torn:nth=3;wal.read.flip:p=0.5;epc.exhaust:nth=10,sticky"
  // A bare name means nth=1. Returns false (and sets *error) on malformed
  // input without arming anything from it.
  bool arm_from_spec(std::string_view spec, std::string* error = nullptr);

  // Reads TEEPERF_FAULTS (spec string) and TEEPERF_FAULT_SEED. Call once at
  // process/session start; a malformed env spec is reported on stderr and
  // ignored rather than failing the host program.
  void arm_from_env();

  // True when at least one point is armed. The fires() fast path.
  bool any_armed() const {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  // Counts a hit on `name` and decides whether the fault fires now.
  bool should_fire(std::string_view name);

  // Introspection for tests and reports.
  u64 hits(const std::string& name) const;
  u64 fire_count(const std::string& name) const;

  // Deterministic value in [0, bound): hashes (seed, name, per-name draw
  // index), so the same seed replays the same offsets. bound 0 yields 0.
  u64 value_below(std::string_view name, u64 bound);

  // External arming bridge (wired to the obs shared-memory region by
  // obs/session.cc): `fetch` returns the pending arm count for a point
  // published out-of-process (0 = none), `clear` acknowledges it.
  void set_external(std::function<u64(const std::string&)> fetch,
                    std::function<void(const std::string&)> clear);
  void clear_external();

  // Polls the external source for every known point name and arms
  // nth=<fetched value> (counting from now) for each pending one. Called by
  // the obs watchdog each tick; a no-op without an external source.
  void poll_external();

 private:
  struct Point {
    Spec spec;
    u64 hits = 0;        // hits since last arm
    u64 fired = 0;       // total fires
    u64 draws = 0;       // value_below/probability draws (for determinism)
  };

  bool decide_locked(const std::string& name, Point& pt);
  u64 hash_draw(std::string_view name, u64 draw) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, Point> points_;
  std::atomic<u64> armed_points_{0};
  u64 seed_ = 1;
  std::function<u64(const std::string&)> external_fetch_;
  std::function<void(const std::string&)> external_clear_;
};

// The instrumentation entry point. One relaxed load when nothing is armed.
// teeperf-lint: allow(r1): the armed slow path (mutex + map) only runs in
// fault-injection tests; production probe cost is the relaxed load above.
inline bool fires(std::string_view name) {
  Registry& r = Registry::instance();
  return r.any_armed() && r.should_fire(name);
}

// Deterministic site-local value helper (see Registry::value_below).
inline u64 value_below(std::string_view name, u64 bound) {
  return Registry::instance().value_below(name, bound);
}

// The two generic byte-corruption faults:
//   "<prefix>.torn"    — truncate at a seeded offset in [1, size)
//   "<prefix>.bitflip" — then flip a seeded bit of what is left
// Both forms below take the same draws, so a seed mangles a string and a
// file into the same bytes. They return true if anything was mangled.
bool apply_byte_faults(std::string_view prefix, std::string* bytes);

// The file form, for the recorder dump path: truncates the written file
// at the cut and flips one byte in place.
bool apply_byte_faults_to_file(std::string_view prefix,
                               const std::string& path);

// RAII arming for tests: arms in the constructor, restores a disarmed
// registry (full reset) in the destructor.
class ScopedFault {
 public:
  ScopedFault(const std::string& name, Spec spec) {
    Registry::instance().arm(name, spec);
  }
  explicit ScopedFault(std::string_view spec_string) {
    Registry::instance().arm_from_spec(spec_string);
  }
  ~ScopedFault() { Registry::instance().reset(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace teeperf::fault
