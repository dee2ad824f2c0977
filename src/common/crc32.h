#ifndef STMAKER_COMMON_CRC32_H_
#define STMAKER_COMMON_CRC32_H_

/// \file
/// CRC-32 checksum used to verify model containers (docs/FORMAT.md §4).

#include <cstdint>
#include <string_view>

namespace stmaker {

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial 0xEDB88320) of `data`.
/// Every section of a model container carries one, and each load checks
/// them before trusting a payload, so this runs over the whole file on
/// every cold start and reload: it is computed slicing-by-8 (eight bytes
/// per step, eight 256-entry tables), with values identical to the
/// byte-at-a-time definition. `seed` allows incremental computation: pass
/// a previous checksum to continue it over the next chunk.
uint32_t Crc32(std::string_view data, uint32_t seed = 0);

}  // namespace stmaker

#endif  // STMAKER_COMMON_CRC32_H_
