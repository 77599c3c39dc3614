#include "codec/quant.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "codec/bitstream.h"
#include "codec/crc32.h"
#include "codec/huffman.h"
#include "codec/varint.h"
#include "common/check.h"

namespace fsd::codec {
namespace {

constexpr uint8_t kMagic0 = 'F';
constexpr uint8_t kMagic1 = 'Q';
constexpr uint8_t kVersion = 1;
constexpr uint8_t kMethodStored = 0;
constexpr uint8_t kMethodHuffman = 1;

int64_t MaxMagnitude(int32_t bits) { return (1ll << (bits - 1)) - 1; }

size_t PackedBytes(size_t count, int32_t bits) {
  return (count * static_cast<size_t>(bits) + 7) / 8;
}

Result<std::vector<uint8_t>> ReadNibbleLengths(ByteReader* reader, int count) {
  std::vector<uint8_t> lengths(count, 0);
  const int bytes = (count + 1) / 2;
  FSD_ASSIGN_OR_RETURN(const uint8_t* p, reader->Skip(bytes));
  for (int i = 0; i < count; ++i) {
    const uint8_t b = p[i / 2];
    lengths[i] = (i % 2 == 0) ? (b & 0x0F) : (b >> 4);
  }
  return lengths;
}

}  // namespace

double QuantRelErrorBound(int32_t bits) {
  FSD_CHECK(bits >= kQuantMinBits && bits <= kQuantMaxBits);
  // Half a step relative to the block scale; the 1e-7 absorbs the float
  // rounding of the reconstructed value (quantization itself runs in
  // double).
  return 0.5 / static_cast<double>(MaxMagnitude(bits)) + 1e-7;
}

Bytes QuantCompress(const float* values, size_t count, int32_t bits,
                    QuantStats* stats) {
  FSD_CHECK(bits >= kQuantMinBits && bits <= kQuantMaxBits);
  const int64_t m = MaxMagnitude(bits);
  float scale = 0.0f;
  for (size_t i = 0; i < count; ++i) {
    const float a = std::fabs(values[i]);
    if (a > scale) scale = a;
  }

  // Quantize into b-bit symbols sym = q + m, q in [-m, m].
  Bytes packed;
  packed.reserve(PackedBytes(count, bits));
  BitWriter packer(&packed);
  const double inv_step =
      scale > 0.0f ? static_cast<double>(m) / static_cast<double>(scale) : 0.0;
  const double step =
      scale > 0.0f ? static_cast<double>(scale) / static_cast<double>(m) : 0.0;
  double max_rel_err = 0.0;
  for (size_t i = 0; i < count; ++i) {
    int64_t q = std::llround(static_cast<double>(values[i]) * inv_step);
    if (q > m) q = m;
    if (q < -m) q = -m;
    packer.Write(static_cast<uint32_t>(q + m), bits);
    if (stats != nullptr && scale > 0.0f) {
      const double err =
          std::fabs(static_cast<double>(q) * step -
                    static_cast<double>(values[i])) /
          static_cast<double>(scale);
      if (err > max_rel_err) max_rel_err = err;
    }
  }
  packer.Finish();
  if (stats != nullptr) stats->max_rel_err = max_rel_err;

  // The CRC covers the decode-critical header (width, count, scale) as
  // well as the packed symbols: a flipped scale byte would otherwise
  // reconstruct silently wrong values.
  Bytes crc_hdr;
  crc_hdr.push_back(static_cast<uint8_t>(bits));
  PutVarint64(&crc_hdr, count);
  AppendRaw<float>(&crc_hdr, scale);
  const uint32_t crc =
      Crc32(packed.data(), packed.size(), Crc32(crc_hdr.data(), crc_hdr.size()));

  Bytes out;
  out.reserve(packed.size() + 16);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.push_back(static_cast<uint8_t>(bits));
  PutVarint64(&out, count);
  AppendRaw<float>(&out, scale);
  AppendRaw<uint32_t>(&out, crc);

  // Entropy-code the packed symbol bytes when that actually shrinks them
  // (activation magnitudes are heavily skewed, so symbol bytes repeat).
  std::vector<uint64_t> freqs(256, 0);
  for (uint8_t b : packed) ++freqs[b];
  const std::vector<uint8_t> lengths = BuildCodeLengths(freqs);
  HuffmanEncoder enc(lengths);
  uint64_t coded_bits = 0;
  for (int s = 0; s < 256; ++s) coded_bits += freqs[s] * enc.length(s);
  const size_t table_bytes = 128;  // 256 nibble lengths
  if (table_bytes + (coded_bits + 7) / 8 < packed.size()) {
    out.push_back(kMethodHuffman);
    for (size_t i = 0; i < 256; i += 2) {
      out.push_back(static_cast<uint8_t>((lengths[i] & 0x0F) |
                                         ((lengths[i + 1] & 0x0F) << 4)));
    }
    BitWriter writer(&out);
    for (uint8_t b : packed) enc.Encode(&writer, b);
    writer.Finish();
  } else {
    out.push_back(kMethodStored);
    out.insert(out.end(), packed.begin(), packed.end());
  }
  return out;
}

Result<std::vector<float>> QuantDecompress(std::span<const uint8_t> data) {
  ByteReader reader(data.data(), data.size());
  FSD_ASSIGN_OR_RETURN(uint8_t m0, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t m1, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t version, reader.Read<uint8_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t bits, reader.Read<uint8_t>());
  if (m0 != kMagic0 || m1 != kMagic1 || version != kVersion) {
    return Status::DataLoss("bad FQ header");
  }
  if (bits < kQuantMinBits || bits > kQuantMaxBits) {
    return Status::DataLoss("bad FQ width");
  }
  FSD_ASSIGN_OR_RETURN(uint64_t count, GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(float scale, reader.Read<float>());
  FSD_ASSIGN_OR_RETURN(uint32_t expect_crc, reader.Read<uint32_t>());
  FSD_ASSIGN_OR_RETURN(uint8_t method, reader.Read<uint8_t>());
  if (!(scale >= 0.0f) || !std::isfinite(scale)) {
    return Status::DataLoss("bad FQ scale");
  }

  // A hostile count would overflow the packed size below.
  if (count > std::numeric_limits<uint64_t>::max() / kQuantMaxBits) {
    return Status::DataLoss("FQ count overflows");
  }
  const size_t packed_bytes = PackedBytes(count, bits);
  Bytes packed;
  if (method == kMethodStored) {
    FSD_ASSIGN_OR_RETURN(packed, reader.ReadBytes(packed_bytes));
  } else if (method == kMethodHuffman) {
    FSD_ASSIGN_OR_RETURN(std::vector<uint8_t> lengths,
                         ReadNibbleLengths(&reader, 256));
    FSD_ASSIGN_OR_RETURN(HuffmanDecoder dec, HuffmanDecoder::Build(lengths));
    // Every packed byte decodes from at least one bit.
    if (packed_bytes > 8 * reader.remaining()) {
      return Status::DataLoss("FQ count exceeds what the payload encodes");
    }
    BitReader bits_in(data.data() + reader.position(), reader.remaining());
    packed.reserve(packed_bytes);
    for (size_t i = 0; i < packed_bytes; ++i) {
      FSD_ASSIGN_OR_RETURN(int sym, dec.Decode(&bits_in));
      packed.push_back(static_cast<uint8_t>(sym));
    }
  } else {
    return Status::DataLoss("unknown FQ method");
  }
  Bytes crc_hdr;
  crc_hdr.push_back(bits);
  PutVarint64(&crc_hdr, count);
  AppendRaw<float>(&crc_hdr, scale);
  const uint32_t crc = Crc32(packed.data(), packed.size(),
                             Crc32(crc_hdr.data(), crc_hdr.size()));
  if (crc != expect_crc) {
    return Status::DataLoss("FQ checksum mismatch");
  }

  const int64_t m = MaxMagnitude(bits);
  const double step =
      scale > 0.0f ? static_cast<double>(scale) / static_cast<double>(m) : 0.0;
  std::vector<float> values;
  values.reserve(count);
  BitReader unpacker(packed.data(), packed.size());
  for (uint64_t i = 0; i < count; ++i) {
    FSD_ASSIGN_OR_RETURN(uint32_t sym, unpacker.Read(bits));
    if (sym > static_cast<uint32_t>(2 * m)) {
      return Status::DataLoss("FQ symbol out of range");
    }
    const int64_t q = static_cast<int64_t>(sym) - m;
    values.push_back(static_cast<float>(static_cast<double>(q) * step));
  }
  return values;
}

}  // namespace fsd::codec
