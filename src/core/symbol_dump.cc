#include "core/symbol_dump.h"

#include <dlfcn.h>

#include <unordered_set>

#include "common/stringutil.h"
#include "core/runtime.h"
#include "core/symbol_registry.h"

namespace teeperf {

std::string build_symbol_file(const ProfileLog& log) {
  std::string sym = SymbolRegistry::instance().serialize();
  std::unordered_set<u64> raw_addrs;
  // The written windows only, read in place: the entry array has
  // per-shard gaps, so its raw slots are not the written set.
  for (u32 s = 0; s < log.shard_count(); ++s) {
    for (std::span<const LogEntry> sp : log.window(s).spans) {
      for (const LogEntry& e : sp) {
        if (!SymbolRegistry::is_registered_id(e.addr)) raw_addrs.insert(e.addr);
      }
    }
  }
  // The residual window is not the whole session: spill mode drains entries
  // out of shm continuously and ring mode overwrites them on wrap. The
  // runtime's first-sight table holds every raw address that was ever
  // recorded, so a fully drained/wrapped log still symbolizes completely.
  std::vector<u64> seen;
  runtime::seen_addresses(&seen);
  for (u64 a : seen) {
    if (!SymbolRegistry::is_registered_id(a)) raw_addrs.insert(a);
  }
  for (u64 a : raw_addrs) {
    Dl_info info{};
    std::string name;
    if (dladdr(reinterpret_cast<void*>(a), &info) && info.dli_sname) {
      name = demangle(info.dli_sname);
    } else {
      name = str_format("0x%llx", static_cast<unsigned long long>(a));
    }
    sym += str_format("%llu\t", static_cast<unsigned long long>(a));
    sym += name;
    sym += '\n';
  }
  return sym;
}

}  // namespace teeperf
