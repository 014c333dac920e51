#include "common/stringutil.h"

#include <cstdarg>
#include <cstdio>

namespace teeperf {

std::string human_bytes(double bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 4) {
    bytes /= 1024.0;
    ++u;
  }
  return str_format("%.1f %s", bytes, units[u]);
}

std::string with_commas(u64 v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  usize lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (usize i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string str_format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<usize>(n));
    vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

void append_fixed(std::string& out, double v, int decimals) {
  // Room for DBL_MAX's 309 integer digits, a sign, the point and 16
  // decimals.
  char buf[330];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                                decimals)
                      .ptr);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  usize start = 0;
  for (usize i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string ellipsize(std::string_view s, usize max) {
  if (s.size() <= max) return std::string(s);
  if (max <= 2) return std::string(s.substr(0, max));
  return std::string(s.substr(0, max - 2)) + "..";
}

}  // namespace teeperf
