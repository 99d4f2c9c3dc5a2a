#include "persist/crc32c.h"

#include <array>

#include "util/binary_io.h"

namespace moche {
namespace persist {

namespace {

// Slice-by-8 tables for the reflected Castagnoli polynomial. tables[0] is
// the classic byte-at-a-time table; tables[k][b] is the CRC of byte b
// followed by k zero bytes, so eight table lookups advance the CRC over
// one 8-byte block. Built once at first use (C++11 static-local
// initialization runs exactly once, even under concurrent first calls).
using Tables = std::array<std::array<uint32_t, 256>, 8>;

const Tables& SliceTables() {
  static const Tables tables = [] {
    constexpr uint32_t kPolyReflected = 0x82F63B78u;
    Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ kPolyReflected : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t size) {
  const Tables& t = SliceTables();
  const char* p = static_cast<const char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; size >= 8; p += 8, size -= 8) {
    // The block as a little-endian word assembled from bytes: no
    // alignment or host byte-order assumption.
    const uint64_t block = bin::LoadU64Le(p);
    const uint32_t lo = c ^ static_cast<uint32_t>(block);
    const uint32_t hi = static_cast<uint32_t>(block >> 32);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ static_cast<uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace persist
}  // namespace moche
