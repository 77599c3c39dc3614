// CRC-32 (IEEE 802.3 polynomial), slice-by-8 table-driven; used to detect
// payload corruption end-to-end across the simulated communication channels.
#ifndef FSD_CODEC_CRC32_H_
#define FSD_CODEC_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace fsd::codec {

/// Computes CRC-32 over `size` bytes, chaining from `seed` (0 to start).
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

}  // namespace fsd::codec

#endif  // FSD_CODEC_CRC32_H_
