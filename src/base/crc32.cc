#include "base/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace geodp {
namespace {

// The eight-byte loop below reads each half of a word as a little-endian
// integer, so its first byte lands in the low bits.
static_assert(std::endian::native == std::endian::little,
              "Crc32's slicing-by-8 loop assumes a little-endian host");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// Reflected polynomial 0xEDB88320 (IEEE). tables[0] is the byte-wise
// table; tables[k][b] is the CRC state of byte b followed by k zero
// bytes, so eight table lookups advance the state by eight bytes
// (slicing-by-8). Built once at startup.
Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

const Tables& CrcTables() {
  static const Tables tables = BuildTables();
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const Tables& t = CrcTables();
  uint32_t state = 0xFFFFFFFFu;
  for (; size >= 8; size -= 8, bytes += 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, bytes, 4);
    std::memcpy(&hi, bytes + 4, 4);
    lo ^= state;
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
            t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
            t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) {
    state = t[0][(state ^ *bytes) & 0xFFu] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

}  // namespace geodp
