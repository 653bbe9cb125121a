// CRC32C (Castagnoli) checksums.
//
// Used as the integrity check on heap pages and record-file records. The
// Castagnoli polynomial (0x1EDC6F41) has better error-detection properties
// for storage payloads than the zlib CRC and matches what real systems
// (ext4, iSCSI, LevelDB/RocksDB, PostgreSQL 9.3+) use on disk.

#pragma once

#include <cstddef>
#include <cstdint>

namespace corgipile {

/// CRC32C of `data[0, len)`. The implementation is picked once, at first
/// use, from the CPU: the SSE4.2 `crc32` instruction on x86-64 hosts that
/// have it, otherwise a table-driven slice-by-4 loop. Both compute the same
/// function, so a stored checksum verifies on any host.
uint32_t Crc32c(const void* data, size_t len);

/// Extends a running CRC32C with more bytes. `crc` is the value returned by
/// a previous Crc32c/Crc32cExtend call.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len);

/// CRC value used on disk. The on-disk convention reserves 0 for "no
/// checksum" (legacy/unstamped data), so a computed CRC of 0 is mapped to 1.
inline uint32_t Crc32cForStorage(const void* data, size_t len) {
  const uint32_t c = Crc32c(data, len);
  return c == 0 ? 1u : c;
}

/// The two implementations behind Crc32cExtend, exposed so tests can check
/// them against each other.
namespace crc32c_internal {

/// Table-driven slice-by-4; runs on every host.
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t len);

/// True when this CPU has the instruction ExtendHardware uses.
bool HardwareAvailable();

/// SSE4.2 `crc32`. Precondition: HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, const void* data, size_t len);

}  // namespace crc32c_internal

}  // namespace corgipile
