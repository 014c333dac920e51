// On-disk session registry: the discovery layer between profiling sessions
// and host-side observers (tools/teeperf_monitord, tools/teeperf_stats).
//
// Every named session (teeperf_record, or an embedding Recorder) publishes
// one JSON descriptor file "<dir>/<name>.json" naming its shm segments and
// owner pid, and removes it on clean exit. Observers enumerate the
// directory instead of guessing shm names, so N concurrent sessions on one
// host never collide and never cross-attach (the bug the old
// "/teeperf.<pid>" convention had when a pid was ambiguous or recycled).
//
// The directory is $TEEPERF_SESSION_DIR when set, else a fixed per-host
// default. Descriptors are written atomically (tmp + rename), so readers
// only ever see whole files. A session killed before cleanup leaves a
// stale descriptor plus orphaned "/teeperf.<pid>.<nonce>.{log,obs}" shm
// segments; gc() reclaims both once the owner pid is dead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace teeperf::session_registry {

// One profiling session, as published by its owner. Serialized as a single
// one-line JSON object per descriptor file.
struct SessionDescriptor {
  std::string name;     // registry key, filename-safe ("teeperf.<pid>.<nonce>")
  u64 pid = 0;          // owner process (wrapper / embedding recorder)
  std::string log_shm;  // named log segment; "" when the log is anonymous
  std::string obs_shm;  // named obs telemetry segment; "" when telemetry off
  std::string prefix;   // dump prefix (".sym" lives next to it); may be ""
  u64 capacity = 0;     // log capacity in entries
  u32 shards = 0;       // log shard count (>= 1; 0 = not recorded)
  u64 start_ns = 0;     // CLOCK_MONOTONIC at publish time
};

// $TEEPERF_SESSION_DIR, or the shared per-host default
// "/tmp/teeperf-sessions".
std::string registry_dir();

// A nonce unique enough to never collide on one host: time-derived and
// process-locally sequenced. Combined with the pid in shm_base() it gives
// each session its own shm namespace even across pid reuse.
u64 make_nonce();

// "/teeperf.<pid>.<nonce-hex>" — the session's shm base name; the log
// segment is "<base>.log" and the telemetry segment "<base>.obs".
std::string shm_base(u64 pid, u64 nonce);

// One-line JSON serialization and its tolerant inverse (unknown keys are
// skipped; missing keys keep their defaults). from_json() fails only when
// the required "name" or "pid" fields are absent.
std::string to_json(const SessionDescriptor& d);
bool from_json(std::string_view json, SessionDescriptor* out);

// Atomically writes "<dir>/<name>.json" (tmp + rename), creating `dir` if
// needed. False on I/O failure or an empty/unsafe name.
bool publish_session(const std::string& dir, const SessionDescriptor& d);
bool unpublish_session(const std::string& dir, const std::string& name);

// Every parseable descriptor in `dir`, sorted by name. A missing directory
// is an empty fleet, not an error.
std::vector<SessionDescriptor> list_sessions(const std::string& dir);

bool pid_alive(u64 pid);

// Stale-session GC: removes descriptors whose owner pid is dead (unlinking
// the shm segments they name), drops unparseable descriptor files, and
// sweeps /dev/shm for orphaned "teeperf.<pid>.<nonce>.{log,obs}" segments
// whose embedded pid is dead — a crashed session leaves no descriptor only
// when it died between shm creation and publish. Segments named by a live
// process are never touched.
struct GcResult {
  u32 descriptors = 0;  // stale descriptor files removed
  u32 segments = 0;     // orphaned shm segments unlinked
};
GcResult gc_stale_sessions(const std::string& dir);

}  // namespace teeperf::session_registry
