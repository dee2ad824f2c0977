#ifndef STMAKER_TESTS_REFERENCE_CRC32_H_
#define STMAKER_TESTS_REFERENCE_CRC32_H_

/// \file
/// Reference CRC-32 for differential tests: the byte-at-a-time table
/// definition (IEEE 802.3 polynomial 0xEDB88320) that the slicing-by-8
/// Crc32 in common/crc32.h must agree with on every input.

#include <array>
#include <cstdint>
#include <string_view>

namespace stmaker::testing::reference {

inline uint32_t Crc32(std::string_view data, uint32_t seed = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace stmaker::testing::reference

#endif  // STMAKER_TESTS_REFERENCE_CRC32_H_
