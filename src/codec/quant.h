// Bounded-error uniform quantization of float payloads ("FQ" container).
//
// Values are quantized symmetrically to b-bit symbols against a per-block
// scale (the block's max |value|), bit-packed LSB-first, and entropy-coded
// through the same canonical-Huffman machinery as FsdLz when that shrinks
// them. The worst-case reconstruction error is half a quantization step
// relative to the block scale — QuantRelErrorBound(b) — so callers can pick
// the narrowest width that satisfies a configured relative-error budget.
#ifndef FSD_CODEC_QUANT_H_
#define FSD_CODEC_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace fsd::codec {

constexpr int32_t kQuantMinBits = 2;
constexpr int32_t kQuantMaxBits = 16;

/// Guaranteed worst-case |v_hat - v| / max|v| of b-bit quantization (half a
/// step relative to the block scale, plus float rounding slack).
double QuantRelErrorBound(int32_t bits);

struct QuantStats {
  double max_rel_err = 0.0;  ///< measured max |v_hat - v| / scale this block
};

/// Quantizes `count` floats to `bits` bits each (bits in
/// [kQuantMinBits, kQuantMaxBits]) into a self-describing FQ container.
Bytes QuantCompress(const float* values, size_t count, int32_t bits,
                    QuantStats* stats = nullptr);

/// Inverse of QuantCompress; validates magic/version/CRC.
Result<std::vector<float>> QuantDecompress(std::span<const uint8_t> data);

}  // namespace fsd::codec

#endif  // FSD_CODEC_QUANT_H_
