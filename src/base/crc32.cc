#include "base/crc32.h"

#include <array>

namespace geodp {
namespace {

// Reflected polynomial 0xEDB88320 (IEEE). Table built once at startup.
std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  const auto& table = Table();
  uint32_t state = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    state = table[(state ^ bytes[i]) & 0xFFu] ^ (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

}  // namespace geodp
