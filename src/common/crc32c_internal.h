// The two CRC-32C implementations behind crc32c_extend, exposed only so the
// tests can hold them to the same answers. Production code calls
// crc32c_extend, which picks one once per process.
#pragma once

#include "common/types.h"

namespace teeperf::crc32c_impl {

// Table-driven, one byte per step. Runs everywhere; the fallback when the
// CPU lacks the SSE4.2 crc32 instruction.
u32 extend_portable(u32 crc, const void* data, usize n);

// True when this CPU executes the SSE4.2 crc32 instruction.
bool hardware_available();

// The SSE4.2 crc32 instruction, eight bytes per step; from kThreeStreamMin
// bytes on, three interleaved chains over kStreamBlock-byte blocks. Call
// only when hardware_available() is true.
inline constexpr usize kStreamBlock = 8192;
inline constexpr usize kThreeStreamMin = 3 * kStreamBlock;
u32 extend_hardware(u32 crc, const void* data, usize n);

}  // namespace teeperf::crc32c_impl
