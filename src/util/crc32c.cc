#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace corgipile {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli polynomial

struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ResolveExtend() {
  return crc32c_internal::HardwareAvailable()
             ? crc32c_internal::ExtendHardware
             : crc32c_internal::ExtendPortable;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t len) {
  const auto& t = Tables().t;
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  // Slice-by-4 over aligned-length middle, byte-at-a-time for the tail.
  while (len >= 4) {
    c ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
    c = t[3][c & 0xFF] ^ t[2][(c >> 8) & 0xFF] ^ t[1][(c >> 16) & 0xFF] ^
        t[0][c >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    c = (c >> 8) ^ t[0][(c ^ *p++) & 0xFF];
  }
  return c ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__)

bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

// Compiled for SSE4.2 on its own, so the rest of the build keeps the
// baseline instruction set and this is reached only after the CPU check.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  while (len > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    c = _mm_crc32_u8(c, *p++);
    --len;
  }
  uint64_t c64 = c;
  while (len >= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    c64 = _mm_crc32_u64(c64, word);
    p += 8;
    len -= 8;
  }
  c = static_cast<uint32_t>(c64);
  while (len-- > 0) c = _mm_crc32_u8(c, *p++);
  return c ^ 0xFFFFFFFFu;
}

#else

bool HardwareAvailable() { return false; }

uint32_t ExtendHardware(uint32_t crc, const void* data, size_t len) {
  return ExtendPortable(crc, data, len);
}

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  static const ExtendFn extend = ResolveExtend();
  return extend(crc, data, len);
}

uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace corgipile
