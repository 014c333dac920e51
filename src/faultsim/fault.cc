#include "faultsim/fault.h"

#include "faultsim/fault_points.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <optional>

namespace teeperf::fault {

namespace {

// splitmix64: the standard seed-expansion mixer; enough bits of quality for
// fault-offset selection and probability draws.
u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

u64 hash_name(std::string_view name) {
  u64 h = 1469598103934665603ull;  // FNV-1a
  for (char c : name) {
    h ^= static_cast<u8>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The draws behind the byte faults, for a buffer of `size` bytes: the
// length to keep and the bit to flip within it.
struct ByteFaults {
  usize size = 0;
  bool torn = false;
  std::optional<u64> flip_bit;
  bool any() const { return torn || flip_bit.has_value(); }
};

ByteFaults draw_byte_faults(std::string_view prefix, usize size) {
  ByteFaults f;
  f.size = size;
  std::string torn_name = std::string(prefix) + ".torn";
  std::string flip_name = std::string(prefix) + ".bitflip";
  if (f.size != 0 && fires(torn_name)) {
    f.size = 1 + static_cast<usize>(value_below(torn_name, f.size - 1));
    f.torn = true;
  }
  if (f.size != 0 && fires(flip_name)) {
    f.flip_bit = value_below(flip_name, f.size * 8);
  }
  return f;
}

}  // namespace

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::arm(const std::string& name, Spec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  Point& pt = points_[name];
  bool was_armed = pt.spec.mode != Mode::kOff;
  pt.spec = spec;
  pt.hits = 0;
  bool is_armed = spec.mode != Mode::kOff;
  if (is_armed && !was_armed) armed_points_.fetch_add(1, std::memory_order_relaxed);
  if (!is_armed && was_armed) armed_points_.fetch_sub(1, std::memory_order_relaxed);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
}

void Registry::set_seed(u64 seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed ? seed : 1;
}

u64 Registry::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

bool Registry::arm_from_spec(std::string_view spec, std::string* error) {
  // Parse everything first so a malformed tail arms nothing.
  std::vector<std::pair<std::string, Spec>> parsed;
  usize pos = 0;
  while (pos < spec.size()) {
    usize end = spec.find(';', pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;

    usize colon = item.find(':');
    std::string name(item.substr(0, colon == std::string_view::npos ? item.size()
                                                                    : colon));
    if (name.empty()) {
      if (error) *error = "empty fault name";
      return false;
    }
    Spec s;
    if (colon == std::string_view::npos) {
      s.mode = Mode::kNth;
      s.n = 1;
    } else {
      std::string_view opts = item.substr(colon + 1);
      usize opos = 0;
      bool have_trigger = false;
      while (opos <= opts.size()) {
        usize oend = opts.find(',', opos);
        if (oend == std::string_view::npos) oend = opts.size();
        std::string opt(opts.substr(opos, oend - opos));
        opos = oend + 1;
        if (opt.empty()) {
          if (opos > opts.size()) break;
          if (error) *error = "empty option in '" + name + "'";
          return false;
        }
        if (opt == "sticky") {
          s.sticky = true;
        } else if (opt.rfind("nth=", 0) == 0) {
          char* endp = nullptr;
          s.n = std::strtoull(opt.c_str() + 4, &endp, 10);
          if (*endp || s.n == 0) {
            if (error) *error = "bad nth in '" + name + "'";
            return false;
          }
          s.mode = Mode::kNth;
          have_trigger = true;
        } else if (opt.rfind("p=", 0) == 0) {
          char* endp = nullptr;
          s.p = std::strtod(opt.c_str() + 2, &endp);
          if (*endp || s.p < 0.0 || s.p > 1.0) {
            if (error) *error = "bad probability in '" + name + "'";
            return false;
          }
          s.mode = Mode::kProbability;
          have_trigger = true;
        } else {
          if (error) *error = "unknown option '" + opt + "' in '" + name + "'";
          return false;
        }
        if (opos > opts.size()) break;
      }
      if (!have_trigger) {
        if (error) *error = "no trigger (nth=/p=) for '" + name + "'";
        return false;
      }
    }
    parsed.emplace_back(std::move(name), s);
  }
  if (parsed.empty()) {
    if (error) *error = "empty fault spec";
    return false;
  }
  for (auto& [name, s] : parsed) arm(name, s);
  return true;
}

void Registry::arm_from_env() {
  if (const char* seed_env = std::getenv("TEEPERF_FAULT_SEED")) {
    set_seed(std::strtoull(seed_env, nullptr, 10));
  }
  if (const char* spec = std::getenv("TEEPERF_FAULTS")) {
    std::string error;
    if (!arm_from_spec(spec, &error)) {
      std::fprintf(stderr, "teeperf: ignoring malformed TEEPERF_FAULTS: %s\n",
                   error.c_str());
    }
  }
}

bool Registry::decide_locked(const std::string& name, Point& pt) {
  ++pt.hits;
  switch (pt.spec.mode) {
    case Mode::kOff:
      return false;
    case Mode::kNth:
      if (pt.hits == pt.spec.n || (pt.spec.sticky && pt.hits > pt.spec.n)) {
        ++pt.fired;
        if (!pt.spec.sticky && pt.hits == pt.spec.n) {
          // One-shot: disarm so repeated hits do not re-fire.
          pt.spec.mode = Mode::kOff;
          armed_points_.fetch_sub(1, std::memory_order_relaxed);
        }
        return true;
      }
      return false;
    case Mode::kProbability: {
      u64 draw = mix64(seed_ ^ hash_name(name) ^ mix64(pt.draws++));
      double u = static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
      if (u < pt.spec.p) {
        ++pt.fired;
        return true;
      }
      return false;
    }
  }
  return false;
}

bool Registry::should_fire(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key(name);
  auto it = points_.find(key);
  if (it == points_.end()) return false;  // nothing armed under this name
  return decide_locked(key, it->second);
}

u64 Registry::hits(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hits;
}

u64 Registry::fire_count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fired;
}

u64 Registry::hash_draw(std::string_view name, u64 draw) const {
  return mix64(seed_ ^ hash_name(name) ^ mix64(draw ^ 0x5eedull));
}

u64 Registry::value_below(std::string_view name, u64 bound) {
  if (bound == 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  Point& pt = points_[std::string(name)];
  return hash_draw(name, pt.draws++) % bound;
}

void Registry::set_external(std::function<u64(const std::string&)> fetch,
                            std::function<void(const std::string&)> clear) {
  std::lock_guard<std::mutex> lock(mu_);
  external_fetch_ = std::move(fetch);
  external_clear_ = std::move(clear);
}

void Registry::clear_external() {
  std::lock_guard<std::mutex> lock(mu_);
  external_fetch_ = nullptr;
  external_clear_ = nullptr;
}

void Registry::poll_external() {
  // Snapshot under the lock, fetch outside it: the fetch callback reads the
  // obs shared-memory region and may itself take obs-side paths that hit
  // fault points.
  std::function<u64(const std::string&)> fetch;
  std::function<void(const std::string&)> clear;
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!external_fetch_) return;
    fetch = external_fetch_;
    clear = external_clear_;
    names.reserve(points_.size());
    for (const auto& [name, pt] : points_) names.push_back(name);
  }
  // Built-in point names are pollable even before their site was ever hit.
  for (const char* builtin : fault_points::kAll) names.push_back(builtin);

  for (const std::string& name : names) {
    u64 pending = fetch(name);
    if (pending == 0) continue;
    Spec s;
    s.mode = Mode::kNth;
    s.n = pending;  // fire on the pending-th hit counting from now
    arm(name, s);
    if (clear) clear(name);
  }
}

bool apply_byte_faults(std::string_view prefix, std::string* bytes) {
  ByteFaults f = draw_byte_faults(prefix, bytes->size());
  bytes->resize(f.size);
  if (f.flip_bit) {
    u64 bit = *f.flip_bit;
    (*bytes)[bit / 8] = static_cast<char>((*bytes)[bit / 8] ^ (1u << (bit % 8)));
  }
  return f.any();
}

bool apply_byte_faults_to_file(std::string_view prefix,
                               const std::string& path) {
  // Production state: nothing armed, so no draw can fire — skip the open.
  if (!Registry::instance().any_armed()) return false;
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  ByteFaults f =
      draw_byte_faults(prefix, ok ? static_cast<usize>(st.st_size) : 0);
  if (f.torn) ok = ::ftruncate(fd, static_cast<off_t>(f.size)) == 0;
  if (f.flip_bit) {
    auto off = static_cast<off_t>(*f.flip_bit / 8);
    unsigned char byte = 0;
    ok = ok && ::pread(fd, &byte, 1, off) == 1;
    byte = static_cast<unsigned char>(byte ^ (1u << (*f.flip_bit % 8)));
    ok = ok && ::pwrite(fd, &byte, 1, off) == 1;
  }
  ::close(fd);
  return ok && f.any();
}

}  // namespace teeperf::fault
