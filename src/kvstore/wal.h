// Write-ahead log: crash durability for the memtable. Records are framed as
//   fixed32 masked_crc | fixed32 length | payload
// and the reader stops cleanly at the first torn or corrupt frame, which is
// exactly the recovery contract an LSM store needs (everything before the
// tear was acknowledged; everything after never was).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "kvstore/status.h"

namespace teeperf::kvs {

class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter() { close(); }
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  Status open(const std::string& path, bool truncate);
  Status append(std::string_view record);
  Status flush();
  void close();

 private:
  std::FILE* file_ = nullptr;
};

class WalReader {
 public:
  // Reads all intact records from `path`. A missing file yields zero
  // records and OK (a fresh DB). Corruption after N good records yields
  // those N records and OK with *truncated set (recovery semantics);
  // `strict` instead reports the corruption.
  static Status read_all(const std::string& path, std::vector<std::string>* records,
                         bool* truncated = nullptr, bool strict = false);
};

}  // namespace teeperf::kvs
