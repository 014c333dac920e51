#include "common/crc32c.h"

#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace teeperf {
namespace crc32c_impl {
namespace {

// Table for the byte-at-a-time fallback; built once at startup.
struct Crc32cTable {
  u32 t[256];
  Crc32cTable() {
    constexpr u32 kPoly = 0x82f63b78u;  // reversed Castagnoli polynomial
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
  }
};

const Crc32cTable kTable;

}  // namespace

u32 extend_portable(u32 crc, const void* data, usize n) {
  const u8* p = static_cast<const u8*>(data);
  u32 c = crc ^ 0xffffffffu;
  for (usize i = 0; i < n; ++i) c = kTable.t[(c ^ p[i]) & 0xff] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

#if defined(__x86_64__)

bool hardware_available() {
  __builtin_cpu_init();  // safe even from another static initializer
  return __builtin_cpu_supports("sse4.2");
}

// The crc32 instruction implements the same reflected Castagnoli polynomial
// as the table, so both paths produce bit-identical checksums.
__attribute__((target("sse4.2"))) u32 extend_hardware(u32 crc, const void* data,
                                                      usize n) {
  const u8* p = static_cast<const u8*>(data);
  u64 c = crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    u64 word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  for (; n > 0; --n) c = _mm_crc32_u8(static_cast<u32>(c), *p++);
  return static_cast<u32>(c) ^ 0xffffffffu;
}

#else

bool hardware_available() { return false; }

u32 extend_hardware(u32 crc, const void* data, usize n) {
  return extend_portable(crc, data, n);
}

#endif

}  // namespace crc32c_impl

u32 crc32c_extend(u32 crc, const void* data, usize n) {
  // Chosen on first use: the CPU cannot change under a running process. A
  // function-local static also serves callers in other static initializers.
  static const auto extend = crc32c_impl::hardware_available()
                                 ? crc32c_impl::extend_hardware
                                 : crc32c_impl::extend_portable;
  return extend(crc, data, n);
}

}  // namespace teeperf
