// Maps the 64-bit "address" field of log entries to human-readable names.
//
// The paper resolves raw instruction addresses against the binary's DWARF
// info with addr2line/readelf/c++filt. This repo supports two id spaces in
// the same log:
//   - *registered ids*  — allocated here for RAII-scope instrumentation.
//     Registered ids have bit 62 set so they can never collide with real
//     userspace addresses (x86-64 canonical addresses fit in 48 bits).
//   - *raw addresses*   — produced by the real -finstrument-functions route;
//     resolved at dump time via dladdr (the DWARF stand-in, see DESIGN.md).
//
// The recorder serializes the registry next to the log ("<prefix>.sym"), so
// the analyzer — which may run on another machine — never needs the binary.
#pragma once

#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace teeperf {

class SymbolRegistry {
 public:
  static constexpr u64 kRegisteredBit = 1ull << 62;

  static SymbolRegistry& instance();

  // Interns `name`, returning a stable id (same name → same id).
  u64 intern(std::string_view name);

  // Name for a registered id; empty if unknown.
  std::string name_of(u64 id) const;

  static bool is_registered_id(u64 addr) { return (addr & kRegisteredBit) != 0; }

  // Serializes all known symbols as "id\tname\n" lines.
  std::string serialize() const;

  // Loads "id\tname\n" lines into an id→name map (analyzer side).
  static std::unordered_map<u64, std::string> parse(std::string_view text);

 private:
  SymbolRegistry() = default;

  mutable std::mutex mu_;
  std::unordered_map<std::string, u64> by_name_;
  std::vector<std::string> names_;  // index = id & ~kRegisteredBit
};

// Demangles a C++ symbol (the c++filt stand-in); returns the input unchanged
// if it is not a mangled name.
std::string demangle(const char* mangled);

}  // namespace teeperf
