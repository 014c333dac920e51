// Small string helpers shared by reports, benches and workload drivers.
#pragma once

#include <charconv>
#include <concepts>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace teeperf {

// "1.5 KiB", "874.0 MiB" — binary units, one decimal.
std::string human_bytes(double bytes);

// "12,345,678" — thousands separators for table output.
std::string with_commas(u64 v);

// printf-style formatting into a std::string.
std::string str_format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Appenders for emitters that write one line per frame or row, where
// printf's parsing and sizing pass would dominate. The decimal digits of
// `v`:
template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// `v` with `decimals` (0..16) digits after the point, rounded exactly as
// printf's "%.<decimals>f" rounds it (std::to_chars' fixed form is
// specified as that conversion).
void append_fixed(std::string& out, double v, int decimals);

std::vector<std::string_view> split(std::string_view s, char sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

// Truncates to `max` characters, appending ".." if shortened.
std::string ellipsize(std::string_view s, usize max);

}  // namespace teeperf
