#include "common/crc32c.h"

#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace teeperf {
namespace crc32c_impl {
namespace {

constexpr u32 kPoly = 0x82f63b78u;  // reversed Castagnoli polynomial

// Table for the byte-at-a-time fallback; built once at startup.
struct Crc32cTable {
  u32 t[256];
  Crc32cTable() {
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
  }
};

const Crc32cTable kTable;

// a * b modulo the polynomial, both in the reflected bit order (bit 31 is
// the x^0 coefficient), as zlib's multmodp. Branch-free: a is a running
// crc, whose bits are random.
constexpr u32 multmodp(u32 a, u32 b) {
  u32 p = 0;
  for (int i = 0; i < 32; ++i) {
    p ^= b & (0u - (a >> 31));
    a <<= 1;
    b = (b >> 1) ^ (kPoly & (0u - (b & 1)));
  }
  return p;
}

// x^(8n) modulo the polynomial: what n zero bytes do to a crc register.
constexpr u32 x8nmodp(u64 n) {
  u32 p = 0x80000000u;   // x^0
  u32 sq = 0x40000000u;  // x^1, squared each round
  for (u64 k = 8 * n; k != 0; k >>= 1) {
    if (k & 1) p = multmodp(sq, p);
    sq = multmodp(sq, sq);
  }
  return p;
}

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
//
// One chain of crc32 instructions runs at the instruction's latency, a
// third of its throughput. So inputs of three blocks or more run three
// chains at once, over three adjacent blocks, each chain from a zero
// register. The register is linear: crc(c, A B) = crc(c, A) * x^(8|B|) xor
// crc(0, B), so the first chain's crc is shifted past the second block and
// folded into its crc, then the same for the third. Blocks are fixed in
// size and the split depends only on n, never on where `data` sits.
__attribute__((target("sse4.2"))) u32 extend_hardware(u32 crc, const void* data,
                                                      usize n) {
  static constexpr u32 kBlockShift = x8nmodp(kStreamBlock);
  const u8* p = static_cast<const u8*>(data);
  u64 c = crc ^ 0xffffffffu;
  for (; n >= kThreeStreamMin; n -= 3 * kStreamBlock, p += 3 * kStreamBlock) {
    u64 c0 = c, c1 = 0, c2 = 0;
    for (usize i = 0; i < kStreamBlock; i += 8) {
      u64 w0, w1, w2;
      std::memcpy(&w0, p + i, sizeof(w0));
      std::memcpy(&w1, p + kStreamBlock + i, sizeof(w1));
      std::memcpy(&w2, p + 2 * kStreamBlock + i, sizeof(w2));
      c0 = _mm_crc32_u64(c0, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = multmodp(kBlockShift, static_cast<u32>(c0)) ^ c1;
    c = multmodp(kBlockShift, static_cast<u32>(c)) ^ c2;
  }
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
