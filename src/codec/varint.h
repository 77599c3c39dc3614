// LEB128 varints for compact unsigned integer encoding.
#ifndef FSD_CODEC_VARINT_H_
#define FSD_CODEC_VARINT_H_

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace fsd::codec {

/// Appends an unsigned LEB128 varint (1-10 bytes).
inline void PutVarint64(Bytes* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

/// Reads an unsigned LEB128 varint from `reader`. A value above 2^64 - 1
/// (a tenth byte above 1) is DataLoss, never truncated.
inline Result<uint64_t> GetVarint64(ByteReader* reader) {
  uint64_t value = 0;
  for (int shift = 0; shift < 63; shift += 7) {
    FSD_ASSIGN_OR_RETURN(uint8_t byte, reader->Read<uint8_t>());
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  FSD_ASSIGN_OR_RETURN(uint8_t last, reader->Read<uint8_t>());
  if (last > 1) return Status::DataLoss("varint too long");
  return value | static_cast<uint64_t>(last) << 63;
}

}  // namespace fsd::codec

#endif  // FSD_CODEC_VARINT_H_
