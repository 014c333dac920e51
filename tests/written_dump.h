// The bytes of a compact dump as ProfileLog::write_compact puts them on
// disk, for tests that check or load a dump in memory.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/fileutil.h"
#include "core/log_format.h"

namespace teeperf {

// Writes `log` to a temporary file through ProfileLog::write_compact and
// returns what landed there (empty, with a test failure, if the write
// failed).
inline std::string written_dump(const ProfileLog& log) {
  static int serial = 0;
  std::string path = testing::TempDir() + "teeperf_written_dump." +
                     std::to_string(getpid()) + "." + std::to_string(serial++);
  EXPECT_TRUE(log.write_compact(path));
  std::string bytes = read_file(path).value_or(std::string());
  std::remove(path.c_str());
  return bytes;
}

}  // namespace teeperf
