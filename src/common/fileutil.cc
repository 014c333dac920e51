#include "common/fileutil.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

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

Fd::~Fd() {
  if (fd >= 0) ::close(fd);
}

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
  Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0) {
    out->clear();
    return false;
  }
  // read(2) lands straight in *out, sized to the file first: a string that
  // grows as it reads pays a chain of reallocations and fresh-page faults
  // several times the read itself. The size is only a hint (procfs files
  // report 0, a file may grow), so the loop reads to EOF, and the one byte
  // past the hint lets a file that did not grow end without growing *out.
  struct stat st;
  usize hint = ::fstat(file.fd, &st) == 0 && st.st_size > 0 ? static_cast<usize>(st.st_size) : 0;
  usize want = hint + 1;
  // A buffer that must grow is emptied first, or growing would copy the
  // previous file's bytes into the new allocation only to overwrite them.
  if (out->capacity() < want) {
    out->clear();
    out->reserve(want);
  }
  out->resize(want);
  usize got = 0;
  bool ok = true;
  for (;;) {
    if (got == out->size()) out->resize(got + std::max<usize>(got, 4096));
    ssize_t n = ::read(file.fd, out->data() + got, out->size() - got);
    if (n > 0) {
      got += static_cast<usize>(n);
    } else if (n == 0 || errno != EINTR) {
      ok = n == 0;
      break;
    }
  }
  out->resize(ok ? got : 0);
  return ok;
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
