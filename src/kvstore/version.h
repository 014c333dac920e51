// Version = the immutable set of SSTables forming the persistent state,
// organized into levels (L0 may have overlapping files, deeper levels are
// produced by whole-level merges here). Readers grab a shared_ptr to the
// current Version and read without locks while writers install successors.
// The MANIFEST file persists the live-file list, the next file number and
// the last durable sequence.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "kvstore/options.h"
#include "kvstore/sstable.h"
#include "kvstore/status.h"

namespace teeperf::kvs {

struct FileMeta {
  u64 number = 0;
  std::shared_ptr<Table> table;
  u64 entries = 0;
  u64 size = 0;
};

struct Version {
  // levels[0] is ordered newest-file-first (lookup order matters: L0 files
  // overlap); deeper levels have disjoint files.
  std::vector<std::vector<std::shared_ptr<FileMeta>>> levels;

  explicit Version(usize level_count) : levels(level_count) {}

  u64 level_bytes(usize level) const {
    u64 b = 0;
    for (const auto& f : levels[level]) b += f->size;
    return b;
  }
};

// MANIFEST serialization: a small text file, rewritten atomically-enough
// (write + rename) on every version change.
struct ManifestData {
  u64 next_file_number = 1;
  u64 last_sequence = 0;
  // (level, file_number) pairs; L0 order in the file is lookup order.
  std::vector<std::pair<usize, u64>> files;
};

Status write_manifest(const std::string& db_dir, const ManifestData& data);
Status read_manifest(const std::string& db_dir, ManifestData* data, bool* exists);

std::string table_file_name(const std::string& db_dir, u64 number);
std::string wal_file_name(const std::string& db_dir);

}  // namespace teeperf::kvs
