// Minimal filesystem helpers used by the recorder (log persistence), the
// kvstore substrate (WAL / SSTables) and the bench harnesses.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace teeperf {

// An open file descriptor, closed on scope exit.
struct Fd {
  explicit Fd(int f) : fd(f) {}
  ~Fd();
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  int fd;
};

bool write_file(const std::string& path, std::string_view contents);
bool append_file(const std::string& path, std::string_view contents);
std::optional<std::string> read_file(const std::string& path);
// Reads the file into *out with read(2), one copy, sized to the file first
// and reusing *out's capacity: a caller that reads many files through one
// buffer allocates only when a file outgrows it. Reads to EOF, so files
// longer than their reported size (procfs) come back whole. False (with
// *out cleared) if the file cannot be opened or read.
bool read_file(const std::string& path, std::string* out);
bool file_exists(const std::string& path);
bool remove_file(const std::string& path);
// Creates the directory (and parents). Returns false only on hard failure.
bool make_dirs(const std::string& path);
// Removes a directory tree created by tests/benches.
void remove_tree(const std::string& path);
// A fresh unique directory under $TMPDIR (or /tmp) with the given prefix.
std::string make_temp_dir(const std::string& prefix);

}  // namespace teeperf
