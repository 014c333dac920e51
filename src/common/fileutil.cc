#include "common/fileutil.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include <sys/stat.h>

#include "common/types.h"

namespace teeperf {

namespace fs = std::filesystem;

namespace {

// Writes `contents` through a fresh FILE opened with `mode`, and closes it
// on every path: a short fwrite (disk full) must not leak the descriptor.
bool put_file(const std::string& path, const char* mode,
              std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (!f) return false;
  usize n = contents.empty() ? 0 : std::fwrite(contents.data(), 1, contents.size(), f);
  bool closed = std::fclose(f) == 0;
  return n == contents.size() && closed;
}

}  // namespace

bool write_file(const std::string& path, std::string_view contents) {
  return put_file(path, "wb", contents);
}

bool append_file(const std::string& path, std::string_view contents) {
  return put_file(path, "ab", contents);
}

std::optional<std::string> read_file(const std::string& path) {
  std::string out;
  if (!read_file(path, &out)) return std::nullopt;
  return out;
}

bool read_file(const std::string& path, std::string* out) {
  out->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  // Sized to the file first: a string that grows as it reads pays a chain
  // of reallocations and fresh-page faults several times the read itself.
  // The size is only a hint (procfs files report 0); the loop reads to EOF.
  struct stat st;
  if (::fstat(fileno(f), &st) == 0 && st.st_size > 0) {
    out->reserve(static_cast<usize>(st.st_size));
  }
  char buf[1 << 16];
  usize n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

bool remove_file(const std::string& path) {
  std::error_code ec;
  return fs::remove(path, ec);
}

bool make_dirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  return !ec || fs::exists(path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

std::string make_temp_dir(const std::string& prefix) {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = std::string(base ? base : "/tmp") + "/" + prefix + "XXXXXX";
  std::string buf = tmpl;
  char* got = mkdtemp(buf.data());
  return got ? buf : tmpl;
}

}  // namespace teeperf
