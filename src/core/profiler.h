// Umbrella header: the TEE-Perf public API.
//
// Quickstart:
//
//   teeperf::RecorderOptions opts;
//   auto rec = teeperf::Recorder::create(opts);
//   rec->attach();
//   { TEEPERF_SCOPE("work"); do_work(); }   // or -finstrument-functions
//   rec->detach();
//   rec->dump("/tmp/run");                  // /tmp/run.log + /tmp/run.sym
//
// then analyze with analyzer/stream.h or visualize with flamegraph/.
#pragma once

#include "core/counter.h"     // IWYU pragma: export
#include "core/filter.h"      // IWYU pragma: export
#include "core/log_format.h"  // IWYU pragma: export
#include "core/recorder.h"    // IWYU pragma: export
#include "core/runtime.h"     // IWYU pragma: export
#include "core/scope.h"       // IWYU pragma: export
#include "common/shm.h"         // IWYU pragma: export
#include "core/symbol_registry.h"  // IWYU pragma: export
