#include "core/symbol_registry.h"

#include <cxxabi.h>

#include <charconv>
#include <cstdlib>

#include "common/stringutil.h"
#include "obs/metric_names.h"
#include "obs/session.h"

namespace teeperf {

SymbolRegistry& SymbolRegistry::instance() {
  static SymbolRegistry* reg = new SymbolRegistry();  // immortal: hooks may
  return *reg;                                        // run during shutdown
}

u64 SymbolRegistry::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key(name);
  auto it = by_name_.find(key);
  if (it != by_name_.end()) return it->second;
  u64 id = kRegisteredBit | static_cast<u64>(names_.size());
  names_.push_back(key);
  by_name_.emplace(std::move(key), id);
  if (obs::SelfTelemetry* tel = obs::telemetry()) {
    tel->registry().gauge(obs::metric_names::kSymbolsRegistered).set(names_.size());
  }
  return id;
}

std::string SymbolRegistry::name_of(u64 id) const {
  if (!is_registered_id(id)) return {};
  std::lock_guard<std::mutex> lock(mu_);
  u64 index = id & ~kRegisteredBit;
  return index < names_.size() ? names_[index] : std::string{};
}

std::string SymbolRegistry::serialize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (usize i = 0; i < names_.size(); ++i) {
    out += str_format("%llu\t", static_cast<unsigned long long>(kRegisteredBit | i));
    out += names_[i];
    out += '\n';
  }
  return out;
}

std::unordered_map<u64, std::string> SymbolRegistry::parse(std::string_view text) {
  std::unordered_map<u64, std::string> out;
  for (std::string_view line : split(text, '\n')) {
    if (line.empty()) continue;
    usize tab = line.find('\t');
    if (tab == std::string_view::npos) continue;
    u64 id = 0;
    auto [ptr, ec] = std::from_chars(line.data(), line.data() + tab, id);
    if (ec != std::errc{} || ptr != line.data() + tab) continue;
    out.emplace(id, std::string(line.substr(tab + 1)));
  }
  return out;
}

std::string demangle(const char* mangled) {
  int status = 0;
  char* out = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status == 0 && out) {
    std::string s(out);
    std::free(out);
    return s;
  }
  std::free(out);
  return mangled ? std::string(mangled) : std::string();
}

}  // namespace teeperf
