// The five project rules teeperf_lint enforces (DESIGN.md §9):
//
//   r1  probe-path purity — nothing reachable from the probe roots
//       (runtime::on_enter / on_exit, LogBatch::flush) may allocate, take a
//       lock, build std:: containers/strings, or enter the kernel. The call
//       graph is built from the structural parse and over-approximated:
//       a member call resolves to *every* indexed function with that last
//       name. Intentional slow paths carry waivers at the definition.
//
//   r2  explicit memory order — every atomic member op must spell a
//       std::memory_order_* argument; compare_exchange must spell both, the
//       failure order must be valid (not release/acq_rel) and no stronger
//       than the success order.
//
//   r3  shm layout — every struct in a shared-memory layout header must be
//       trivially copyable (as far as the parse can see) and must match the
//       checked-in field-offset/size manifest exactly.
//
//   r4  name registry — fault-point and metric name string literals may only
//       be spelled in their manifest headers (fault_points.h /
//       metric_names.h); fault-point names must match the TESTING.md table
//       both ways; every name constant must be referenced by real code.
//
// Rules report Findings; the driver (lint.h) handles baselines and output.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/parse.h"

namespace teeperf::lint {

struct Finding {
  std::string rule;  // "r1".."r5"
  std::string file;
  int line = 0;
  std::string message;

  // Line-independent identity used for baseline matching (line numbers
  // drift with unrelated edits; rule+file+message does not).
  std::string key() const { return rule + "|" + file + "|" + message; }
};

// A struct layout as recorded in tools/shm_manifest.json.
struct ManifestField {
  std::string name;
  u64 offset = 0;
  u64 size = 0;
};
struct ManifestStruct {
  std::string name;
  std::string file;  // repo-relative header the struct lives in
  u64 size = 0;
  u64 align = 0;
  std::vector<ManifestField> fields;
};

// Everything the rules need, assembled by the driver (or directly by tests).
struct Corpus {
  std::vector<FileIndex> files;

  // r3: path suffixes of the shared-memory layout headers.
  std::vector<std::string> shm_headers = {"core/log_format.h", "obs/layout.h"};
  std::vector<ManifestStruct> manifest;
  bool have_manifest = false;

  // r4: path suffixes of the name-manifest headers (literals allowed there).
  std::vector<std::string> name_headers = {"faultsim/fault_points.h",
                                           "obs/metric_names.h"};
  // Fault-point names from the TESTING.md table; empty + !have_doc skips the
  // two-way doc check.
  std::set<std::string> doc_fault_points;
  bool have_doc = false;
};

// Runs all rules over the corpus. Deterministic: findings are sorted by
// (file, line, rule, message). Waivers are already applied.
std::vector<Finding> run_rules(const Corpus& corpus);

}  // namespace teeperf::lint
