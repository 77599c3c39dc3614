#include "codec/crc32.h"

#include <array>

namespace fsd::codec {
namespace {

constexpr uint32_t kPoly = 0xEDB88320u;

/// Slice-by-8 tables: tables[0] is the classic byte-at-a-time table and
/// tables[k][b] is the CRC of byte b followed by k zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

const Tables& CrcTables() {
  static const Tables tables = BuildTables();
  return tables;
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed) {
  const Tables& t = CrcTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fsd::codec
