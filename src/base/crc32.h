// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) for integrity
// checking of serialized artifacts. Checkpoints and tensor files append a
// CRC of their payload so torn writes and bit rot are detected at load
// time instead of silently corrupting training state.

#ifndef GEODP_BASE_CRC32_H_
#define GEODP_BASE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace geodp {

/// CRC-32 of `size` bytes starting at `data`. Equivalent to zlib's
/// crc32(0, data, size).
uint32_t Crc32(const void* data, std::size_t size);

}  // namespace geodp

#endif  // GEODP_BASE_CRC32_H_
