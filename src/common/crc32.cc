#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace stmaker {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the slicing-by-8 word loads assume little-endian");

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic byte-wise table; tables[k][b] is the CRC of
/// byte b followed by k zero bytes, so eight table lookups advance the
/// CRC over eight input bytes at once.
Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t seed) {
  static const Tables t = BuildTables();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace stmaker
