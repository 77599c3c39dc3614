#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <tuple>

#include "codec/crc32.h"
#include "codec/lz.h"
#include "codec/quant.h"
#include "codec/varint.h"
#include "common/rng.h"
#include "core/serialization.h"

namespace fsd::core {
namespace {

linalg::ActivationMap MakeRows(int32_t rows, int32_t dim, double density,
                               uint64_t seed) {
  Rng rng(seed);
  linalg::ActivationMap out;
  for (int32_t r = 0; r < rows; ++r) {
    linalg::SparseVector vec;
    vec.dim = dim;
    for (int32_t s = 0; s < dim; ++s) {
      if (rng.NextBool(density)) {
        vec.idx.push_back(s);
        vec.val.push_back(static_cast<float>(rng.NextUniform(0.01, 32.0)));
      }
    }
    if (!vec.empty()) out.emplace(r * 3, std::move(vec));  // sparse ids
  }
  return out;
}

std::vector<int32_t> AllIds(const linalg::ActivationMap& rows) {
  std::vector<int32_t> ids;
  for (const auto& [id, vec] : rows) ids.push_back(id);
  return ids;
}

class SerializationRoundtrip
    : public ::testing::TestWithParam<std::tuple<bool, int, double>> {};

TEST_P(SerializationRoundtrip, EncodeDecodeIdentity) {
  auto [compress, rows, density] = GetParam();
  const linalg::ActivationMap original = MakeRows(rows, 64, density, 42);
  EncodeResult encoded = EncodeRows(original, AllIds(original),
                                    /*max_chunk_bytes=*/0,
                                    LosslessCodec(compress));
  ASSERT_EQ(encoded.chunks.size(), 1u);
  linalg::ActivationMap decoded;
  ASSERT_TRUE(DecodeRows(encoded.chunks[0].wire, &decoded).ok());
  ASSERT_EQ(decoded.size(), original.size());
  for (const auto& [id, vec] : original) {
    EXPECT_EQ(decoded.at(id), vec) << "row " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerializationRoundtrip,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 16, 200),
                       ::testing::Values(0.05, 0.5, 1.0)));

TEST(Serialization, ChunkingRespectsCap) {
  const linalg::ActivationMap rows = MakeRows(400, 256, 0.8, 7);
  const uint64_t cap = 4096;
  EncodeResult encoded = EncodeRows(rows, AllIds(rows), cap, WireCodec{});
  EXPECT_GT(encoded.chunks.size(), 1u);
  linalg::ActivationMap decoded;
  for (const RowChunk& chunk : encoded.chunks) {
    // Raw payload honors the NNZ-heuristic cap (estimate-based, so allow
    // one row of slack; single oversized rows may exceed alone).
    if (chunk.num_rows > 1) {
      EXPECT_LE(chunk.raw_bytes, cap + 2048);
    }
    ASSERT_TRUE(DecodeRows(chunk.wire, &decoded).ok());
  }
  EXPECT_EQ(decoded.size(), rows.size());
}

TEST(Serialization, SkipsInactiveAndMissingRows) {
  linalg::ActivationMap rows = MakeRows(10, 16, 1.0, 3);
  std::vector<int32_t> ids = AllIds(rows);
  ids.push_back(9999);  // never present
  EncodeResult encoded = EncodeRows(rows, ids, 0, WireCodec{});
  EXPECT_EQ(encoded.active_rows, static_cast<int32_t>(rows.size()));
  linalg::ActivationMap decoded;
  ASSERT_TRUE(DecodeRows(encoded.chunks[0].wire, &decoded).ok());
  EXPECT_FALSE(decoded.contains(9999));
}

TEST(Serialization, EmptySendProducesExplicitMarkerChunk) {
  linalg::ActivationMap empty;
  EncodeResult encoded =
      EncodeRows(empty, {1, 2, 3}, 1024, LosslessCodec(true));
  ASSERT_EQ(encoded.chunks.size(), 1u);  // receiver needs a signal
  EXPECT_EQ(encoded.active_rows, 0);
  linalg::ActivationMap decoded;
  ASSERT_TRUE(DecodeRows(encoded.chunks[0].wire, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(Serialization, CompressionShrinksRepetitiveRows) {
  // Saturated activations (clamped at 32) compress well.
  linalg::ActivationMap rows;
  for (int32_t r = 0; r < 64; ++r) {
    linalg::SparseVector vec;
    vec.dim = 512;
    for (int32_t s = 0; s < 512; ++s) {
      vec.idx.push_back(s);
      vec.val.push_back(32.0f);
    }
    rows.emplace(r, std::move(vec));
  }
  EncodeResult plain = EncodeRows(rows, AllIds(rows), 0, WireCodec{});
  EncodeResult packed =
      EncodeRows(rows, AllIds(rows), 0, LosslessCodec(true));
  EXPECT_LT(packed.chunks[0].wire.size(), plain.chunks[0].wire.size() / 3);
}

TEST(Serialization, DecodeRejectsCorruption) {
  linalg::ActivationMap rows = MakeRows(20, 32, 0.7, 9);
  EncodeResult encoded =
      EncodeRows(rows, AllIds(rows), 0, LosslessCodec(true));
  Bytes wire = encoded.chunks[0].wire;
  wire[wire.size() / 2] ^= 0xFF;
  linalg::ActivationMap decoded;
  EXPECT_FALSE(DecodeRows(wire, &decoded).ok());
  EXPECT_FALSE(DecodeRows(Bytes{}, &decoded).ok());
  EXPECT_FALSE(DecodeRows(Bytes{9, 9, 9}, &decoded).ok());
}

TEST(Serialization, DecodeRejectsHostileRowNnz) {
  // An uncompressed payload claiming one row with nnz = 2^60: the field
  // must fail as DataLoss before it sizes the row's index vector.
  Bytes wire = {0};  // uncompressed lossless tag
  codec::PutVarint64(&wire, 1);           // row count
  codec::PutVarint64(&wire, 7);           // row id
  codec::PutVarint64(&wire, 1ull << 60);  // nnz
  codec::PutVarint64(&wire, 1024);        // dim
  for (int i = 0; i < 16; ++i) wire.push_back(0);
  linalg::ActivationMap decoded;
  const Status status = DecodeRows(wire, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_TRUE(decoded.empty());
}

/// An uncompressed payload of one row with the given raw fields and one
/// index (delta `delta`, value 1.0f) when `nnz` is 1.
Bytes OneRowWire(uint64_t row_id, uint64_t nnz, uint64_t dim,
                 uint64_t delta) {
  Bytes wire = {0};  // uncompressed lossless tag
  codec::PutVarint64(&wire, 1);  // row count
  codec::PutVarint64(&wire, row_id);
  codec::PutVarint64(&wire, nnz);
  codec::PutVarint64(&wire, dim);
  if (nnz == 1) {
    codec::PutVarint64(&wire, delta);
    AppendRaw(&wire, 1.0f);
  }
  return wire;
}

TEST(Serialization, DecodeRejectsRowFieldsAboveInt32) {
  constexpr uint64_t kTwo31 = 1ull << 31;
  struct Case {
    const char* name;
    uint64_t row_id, nnz, dim, delta;
  };
  const Case hostile[] = {
      // Would truncate to INT32_MIN.
      {"row_id 2^31", kTwo31, 1, 8, 0},
      // Would truncate to row 5 and overwrite it.
      {"row_id 2^32+5", (1ull << 32) + 5, 1, 8, 0},
      // Index 2^31 passes `idx < dim` in 64 bits, then both the dim and
      // the index would go negative.
      {"dim 2^31+4", 7, 1, kTwo31 + 4, kTwo31},
      // Would truncate to dim 8 while keeping index 9.
      {"dim 2^32+8", 7, 1, (1ull << 32) + 8, 9},
  };
  for (const Case& c : hostile) {
    linalg::ActivationMap decoded;
    const Status status =
        DecodeRows(OneRowWire(c.row_id, c.nnz, c.dim, c.delta), &decoded);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << c.name;
    EXPECT_TRUE(decoded.empty()) << c.name;
  }
  // INT32_MAX itself is representable and decodes.
  constexpr uint64_t kMax = 0x7fffffffull;
  linalg::ActivationMap decoded;
  ASSERT_TRUE(DecodeRows(OneRowWire(kMax, 1, kMax, kMax - 1), &decoded).ok());
  ASSERT_EQ(decoded.size(), 1u);
  const linalg::SparseVector& row = decoded.begin()->second;
  EXPECT_EQ(decoded.begin()->first, 0x7fffffff);
  EXPECT_EQ(row.dim, 0x7fffffff);
  EXPECT_EQ(row.idx, std::vector<int32_t>{0x7ffffffe});
}

TEST(Serialization, DecodeRejectsRowIdAbove2To64) {
  // Row id 2^64 + 3 as a ten-byte varint. Truncated to 64 bits it would
  // read as row 3 and pass the int32 check.
  Bytes wire = {0};              // uncompressed lossless tag
  codec::PutVarint64(&wire, 1);  // row count
  for (const uint8_t b : {0x83, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                          0x80, 0x02}) {
    wire.push_back(b);
  }
  codec::PutVarint64(&wire, 1);  // nnz
  codec::PutVarint64(&wire, 8);  // dim
  codec::PutVarint64(&wire, 0);  // delta
  AppendRaw(&wire, 1.0f);
  linalg::ActivationMap decoded;
  const Status status = DecodeRows(wire, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
  EXPECT_TRUE(decoded.empty());
}

TEST(Serialization, EstimateRowBytesMonotonic) {
  EXPECT_LT(EstimateRowBytes(1), EstimateRowBytes(100));
  EXPECT_GE(EstimateRowBytes(0), 1u);
}

// --- property tests: randomized maps across wire modes ---

/// Randomized rows with mixed signs and magnitudes (the hand-built
/// activation shapes above only cover positive benchmark-style values).
linalg::ActivationMap RandomRows(Rng* rng, int32_t max_rows, int32_t dim) {
  linalg::ActivationMap out;
  const int32_t rows = 1 + static_cast<int32_t>(rng->NextBounded(max_rows));
  for (int32_t r = 0; r < rows; ++r) {
    linalg::SparseVector vec;
    vec.dim = dim;
    for (int32_t s = 0; s < dim; ++s) {
      if (!rng->NextBool(0.3)) continue;
      vec.idx.push_back(s);
      // Span several decades, both signs, with exact zeros excluded (an
      // all-zero row would have been dropped upstream).
      const double mag = std::pow(10.0, rng->NextUniform(-3.0, 2.0));
      vec.val.push_back(static_cast<float>(rng->NextBool(0.5) ? mag : -mag));
    }
    if (!vec.empty()) {
      out.emplace(static_cast<int32_t>(rng->NextBounded(1 << 20)),
                  std::move(vec));
    }
  }
  return out;
}

TEST(SerializationProperty, LosslessRoundTripIsByteExact) {
  Rng rng(1234);
  for (int trial = 0; trial < 40; ++trial) {
    const linalg::ActivationMap original = RandomRows(&rng, 50, 96);
    const bool compress = trial % 2 == 0;
    const uint64_t cap = trial % 3 == 0 ? 512 : 0;
    EncodeResult encoded = EncodeRows(original, AllIds(original), cap,
                                      LosslessCodec(compress));
    linalg::ActivationMap decoded;
    for (const RowChunk& chunk : encoded.chunks) {
      ASSERT_TRUE(DecodeRows(chunk.wire, &decoded).ok());
    }
    ASSERT_EQ(decoded.size(), original.size()) << "trial " << trial;
    for (const auto& [id, vec] : original) {
      // operator== on float values: the lossless path must be bit-exact.
      EXPECT_EQ(decoded.at(id), vec) << "trial " << trial << " row " << id;
    }
  }
}

TEST(SerializationProperty, QuantizedWidthsStayWithinBound) {
  Rng rng(99);
  for (const int32_t bits : {2, 4, 8, 12, 16}) {
    const double bound = codec::QuantRelErrorBound(bits);
    for (int trial = 0; trial < 10; ++trial) {
      const linalg::ActivationMap original = RandomRows(&rng, 40, 80);
      if (original.empty()) continue;
      float global_max = 0.0f;
      for (const auto& [id, vec] : original) {
        for (float v : vec.val) global_max = std::max(global_max, std::fabs(v));
      }
      const uint64_t cap = trial % 2 == 0 ? 768 : 0;
      EncodeResult encoded =
          EncodeRows(original, AllIds(original), cap,
                     QuantCodec(bits));
      linalg::ActivationMap decoded;
      for (const RowChunk& chunk : encoded.chunks) {
        EXPECT_EQ(chunk.quant_bits, bits);
        // The chunk's measured error must respect the advertised bound.
        EXPECT_LE(chunk.quant_err_max, bound);
        ASSERT_TRUE(DecodeRows(chunk.wire, &decoded).ok());
      }
      ASSERT_EQ(decoded.size(), original.size());
      for (const auto& [id, vec] : original) {
        const linalg::SparseVector& got = decoded.at(id);
        // Structure (ids, indices, dim) is never lossy.
        ASSERT_EQ(got.idx, vec.idx) << "bits " << bits << " row " << id;
        ASSERT_EQ(got.dim, vec.dim);
        for (size_t j = 0; j < vec.val.size(); ++j) {
          // Per-chunk scale <= global max, so the chunk-relative bound
          // holds a fortiori against the map's global max.
          EXPECT_LE(std::fabs(got.val[j] - vec.val[j]),
                    bound * static_cast<double>(global_max))
              << "bits " << bits << " row " << id << " j " << j;
        }
      }
    }
  }
}

TEST(SerializationProperty, QuantizedCorruptionAndTruncationRejected) {
  Rng rng(7);
  const linalg::ActivationMap original = RandomRows(&rng, 30, 64);
  ASSERT_FALSE(original.empty());
  EncodeResult encoded =
      EncodeRows(original, AllIds(original), 0,
                 QuantCodec(8));
  const Bytes& wire = encoded.chunks[0].wire;
  // Flip bytes across the chunk: tag/framing, structure block, FQ header,
  // FQ symbol stream. Every flip must be rejected (never silently decode
  // to different rows). The final byte is excluded: it can be pure
  // BitWriter zero-padding that no reader consumes.
  for (const size_t pos :
       {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
        wire.size() / 4, wire.size() / 2, (3 * wire.size()) / 4,
        wire.size() - 2}) {
    Bytes corrupt = wire;
    corrupt[pos] ^= 0xFF;
    linalg::ActivationMap decoded;
    const Status status = DecodeRows(corrupt, &decoded);
    if (status.ok()) {
      // A flip that survives decoding must reconstruct the exact same
      // rows (e.g. it landed in dead padding); anything else is silent
      // corruption.
      EXPECT_EQ(decoded.size(), original.size()) << "pos " << pos;
      for (const auto& [id, vec] : original) {
        ASSERT_TRUE(decoded.contains(id)) << "pos " << pos;
        EXPECT_EQ(decoded.at(id).idx, vec.idx) << "pos " << pos;
      }
    }
  }
  // Truncations anywhere must fail loudly.
  for (const size_t keep :
       {size_t{0}, size_t{1}, size_t{4}, wire.size() / 2, wire.size() - 1}) {
    Bytes truncated(wire.begin(), wire.begin() + keep);
    linalg::ActivationMap decoded;
    EXPECT_FALSE(DecodeRows(truncated, &decoded).ok()) << "keep " << keep;
  }
}

TEST(SerializationProperty, QuantizedWireShrinksLosslessWire) {
  // The headline trade: 8-bit quantized transport must land well under
  // the lossless-compressed wire size on benchmark-shaped activations.
  const linalg::ActivationMap rows = MakeRows(200, 256, 0.4, 21);
  EncodeResult lossless =
      EncodeRows(rows, AllIds(rows), 0, LosslessCodec(true));
  EncodeResult quantized = EncodeRows(
      rows, AllIds(rows), 0, QuantCodec(8));
  ASSERT_EQ(lossless.chunks.size(), 1u);
  ASSERT_EQ(quantized.chunks.size(), 1u);
  EXPECT_LT(quantized.chunks[0].wire.size(),
            lossless.chunks[0].wire.size() * 7 / 10);
}

TEST(SerializationProperty, PlanRowsAgreesWithEncodeRowsExactly) {
  // PlanRows prices the serialization CPU BEFORE the encode runs on the
  // compute pool, so its raw-byte total, chunk count and active-row/nnz
  // numbers must agree with the real encode exactly — for every codec
  // (raw bytes are codec-independent by construction) and every cap.
  const std::vector<WireCodec> codecs = {
      WireCodec{}, LosslessCodec(true), QuantCodec(8), QuantCodec(4, false)};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 71);
    const int32_t rows = static_cast<int32_t>(rng.NextBounded(120));
    const double density = rng.NextUniform(0.02, 0.9);
    const linalg::ActivationMap source = MakeRows(rows, 96, density, seed);
    // Mix present, absent and (via MakeRows dropping empties) inactive ids.
    std::vector<int32_t> ids = AllIds(source);
    ids.push_back(100000);  // never present
    const linalg::ActivationRows flat = linalg::ActivationRows::FromMap(source);
    const std::vector<RowRef> refs = CollectRows(flat, ids);
    for (const uint64_t cap : {uint64_t{0}, uint64_t{64}, uint64_t{700},
                               uint64_t{1} << 20}) {
      const EncodePlan plan = PlanRows(refs, cap);
      for (const WireCodec& codec : codecs) {
        const EncodeResult encoded = EncodeRows(source, ids, cap, codec);
        uint64_t raw_bytes = 0;
        for (const RowChunk& chunk : encoded.chunks) {
          raw_bytes += chunk.raw_bytes;
        }
        ASSERT_EQ(plan.raw_bytes, raw_bytes)
            << "seed " << seed << " cap " << cap;
        ASSERT_EQ(plan.num_chunks, encoded.chunks.size())
            << "seed " << seed << " cap " << cap;
        ASSERT_EQ(plan.active_rows, encoded.active_rows)
            << "seed " << seed << " cap " << cap;
      }
    }
  }
}

// --- compressed lossless layouts: byte planes and whole-payload LZ ---

constexpr uint8_t kWholeLzTag = 1;
constexpr uint8_t kPlaneTag = 3;

/// Rows carrying the float bit patterns `bits` in order, `per_row` to a
/// row (the last row takes the remainder), at spread-out indices. With
/// `empty_every` > 0, every that-many-th row is an empty row instead.
linalg::ActivationRows RowsOfBits(const std::vector<uint32_t>& bits,
                                  size_t per_row, size_t empty_every = 0) {
  linalg::ActivationRows rows;
  std::vector<int32_t> idx;
  std::vector<float> val;
  int32_t id = 0;
  for (size_t at = 0; at < bits.size(); id += 2) {
    if (empty_every > 0 && id % empty_every == empty_every - 1) {
      rows.Append(id, 9, nullptr, nullptr, 0);
      continue;
    }
    const size_t n = std::min(per_row, bits.size() - at);
    idx.clear();
    val.clear();
    for (size_t k = 0; k < n; ++k, ++at) {
      idx.push_back(static_cast<int32_t>(3 * k + (k % 2)));
      val.push_back(std::bit_cast<float>(bits[at]));
    }
    rows.Append(id, static_cast<int32_t>(3 * per_row + 1), idx.data(),
                val.data(), n);
  }
  return rows;
}

std::vector<RowRef> Refs(const linalg::ActivationRows& rows) {
  std::vector<RowRef> refs;
  for (size_t r = 0; r < rows.size(); ++r) {
    refs.push_back({rows.ids[r], rows.row(r)});
  }
  return refs;
}

/// Equality that compares values bit for bit (NaN payloads, -0.0).
bool SameBits(const linalg::ActivationRows& a,
              const linalg::ActivationRows& b) {
  return a.ids == b.ids && a.dims == b.dims && a.offsets == b.offsets &&
         a.idx == b.idx && a.val.size() == b.val.size() &&
         (a.val.empty() ||
          std::memcmp(a.val.data(), b.val.data(),
                      a.val.size() * sizeof(float)) == 0);
}

linalg::ActivationRows DecodeAll(const EncodeResult& encoded) {
  linalg::ActivationRows out;
  for (const RowChunk& chunk : encoded.chunks) {
    EXPECT_TRUE(DecodeRows(chunk.wire, &out).ok());
  }
  return out;
}

/// Random 32-bit patterns: every sign, exponent and mantissa, NaNs and
/// infinities included, plus the edge patterns named below.
std::vector<uint32_t> NoisyBits(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> bits = {
      0x80000000u,  // -0.0
      0x00000000u,  // +0.0
      0x00000001u,  // smallest denormal
      0x807fffffu,  // largest negative denormal
      0x7fc00001u,  // quiet NaN with a payload
      0x7f800001u,  // signalling NaN
      0xffffffffu,  // negative NaN, all payload bits set
      0x7f800000u,  // +inf
      0x42000000u,  // 32.0
  };
  while (bits.size() < n) bits.push_back(static_cast<uint32_t>(rng.Next()));
  bits.resize(n);
  return bits;
}

/// Today's whole-payload LZ chunk for `rows`: tag 1, then the FsdLz
/// container of the tag-0 payload.
Bytes WholeLzWire(std::span<const RowRef> rows) {
  const EncodeResult plain = EncodeRows(rows, 0, LosslessCodec(false));
  EXPECT_EQ(plain.chunks.size(), 1u);
  const Bytes& wire = plain.chunks[0].wire;
  EXPECT_EQ(wire[0], 0);
  Bytes expected = {kWholeLzTag};
  const Bytes packed = codec::LzCompress(Bytes(wire.begin() + 1, wire.end()));
  expected.insert(expected.end(), packed.begin(), packed.end());
  return expected;
}

TEST(BytePlane, RoundTripIsBitExactForEveryPattern) {
  for (const size_t per_row : {size_t{1}, size_t{7}, size_t{200}}) {
    const linalg::ActivationRows rows =
        RowsOfBits(NoisyBits(3000, per_row), per_row, /*empty_every=*/5);
    const std::vector<RowRef> refs = Refs(rows);
    for (const uint64_t cap : {uint64_t{0}, uint64_t{600}}) {
      const EncodeResult encoded = EncodeRows(refs, cap, LosslessCodec(true));
      for (const RowChunk& chunk : encoded.chunks) {
        // A chunk of empty rows alone has no values to split.
        EXPECT_EQ(chunk.wire[0], chunk.nnz > 0 ? kPlaneTag : kWholeLzTag)
            << "per_row " << per_row;
      }
      EXPECT_TRUE(SameBits(DecodeAll(encoded), rows))
          << "per_row " << per_row << " cap " << cap;
    }
  }
}

TEST(BytePlane, ChunksCutByTheQueueCapRoundTrip) {
  const uint64_t cap = FsdOptions{}.max_message_bytes;
  const linalg::ActivationRows rows = RowsOfBits(NoisyBits(90000, 5), 500);
  const EncodeResult encoded = EncodeRows(Refs(rows), cap, LosslessCodec(true));
  ASSERT_GE(encoded.chunks.size(), 2u);
  uint64_t raw_bytes = 0;
  for (const RowChunk& chunk : encoded.chunks) {
    EXPECT_EQ(chunk.wire[0], kPlaneTag);
    raw_bytes += chunk.raw_bytes;
  }
  EXPECT_EQ(raw_bytes, PlanRows(Refs(rows), cap).raw_bytes);
  EXPECT_TRUE(SameBits(DecodeAll(encoded), rows));
}

TEST(BytePlane, OneEighthRepeatedLowBytesKeepsWholePayloadLz) {
  // 64 values with distinct low 24 bits and random high bytes; a value
  // that "repeats" takes its predecessor's low 24 bits under a different
  // high byte, so only the low bytes decide.
  Rng rng(8);
  for (const int repeats : {7, 8}) {
    std::vector<uint32_t> bits;
    for (uint32_t k = 0; k < 64; ++k) {
      const uint32_t high = static_cast<uint32_t>(rng.NextBounded(256)) << 24;
      uint32_t low = (k * 0x9E3779u + 0x1234u) & 0xFFFFFFu;
      if (k % 8 == 1 && static_cast<int>(k / 8) < repeats) {
        low = bits.back() & 0xFFFFFFu;
      }
      bits.push_back(high | low);
    }
    const linalg::ActivationRows rows = RowsOfBits(bits, 16);
    const std::vector<RowRef> refs = Refs(rows);
    const EncodeResult encoded = EncodeRows(refs, 0, LosslessCodec(true));
    ASSERT_EQ(encoded.chunks.size(), 1u);
    if (repeats == 8) {  // 8 of 64 values: exactly 1/8
      EXPECT_EQ(encoded.chunks[0].wire, WholeLzWire(refs));
    } else {
      EXPECT_EQ(encoded.chunks[0].wire[0], kPlaneTag);
    }
    EXPECT_TRUE(SameBits(DecodeAll(encoded), rows)) << "repeats " << repeats;
  }
}

TEST(BytePlane, RepetitiveChunksEncodeAsTodaysWholePayloadLz) {
  Rng rng(32);
  std::vector<uint32_t> saturated(4096, std::bit_cast<uint32_t>(32.0f));
  std::vector<uint32_t> ones(4096, std::bit_cast<uint32_t>(1.0f));
  std::vector<uint32_t> half(4096);
  for (uint32_t& b : half) {
    b = rng.NextBool(0.5)
            ? std::bit_cast<uint32_t>(32.0f)
            : std::bit_cast<uint32_t>(
                  static_cast<float>(rng.NextUniform(0.01, 32.0)));
  }
  for (const auto* bits : {&saturated, &ones, &half}) {
    const linalg::ActivationRows rows = RowsOfBits(*bits, 64);
    const std::vector<RowRef> refs = Refs(rows);
    const EncodeResult encoded = EncodeRows(refs, 0, LosslessCodec(true));
    ASSERT_EQ(encoded.chunks.size(), 1u);
    EXPECT_EQ(encoded.chunks[0].wire, WholeLzWire(refs));
    EXPECT_TRUE(SameBits(DecodeAll(encoded), rows));
  }
}

TEST(BytePlane, PlanesShrinkNoisyRowsBelowWholePayloadLz) {
  const linalg::ActivationMap map = MakeRows(200, 256, 0.4, 21);
  const linalg::ActivationRows flat = linalg::ActivationRows::FromMap(map);
  const std::vector<RowRef> refs = CollectRows(flat, AllIds(map));
  const EncodeResult encoded = EncodeRows(refs, 0, LosslessCodec(true));
  ASSERT_EQ(encoded.chunks.size(), 1u);
  ASSERT_EQ(encoded.chunks[0].wire[0], kPlaneTag);
  EXPECT_LT(encoded.chunks[0].wire.size(), WholeLzWire(refs).size());
}

/// FNV-1a over the fields fed to it.
class WireDigest {
 public:
  void Add(const Bytes& bytes) {
    AddWord(bytes.size());
    for (const uint8_t b : bytes) Mix(b);
  }
  void AddWord(uint64_t word) {
    for (int i = 0; i < 8; ++i) Mix((word >> (8 * i)) & 0xff);
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(uint64_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ull; }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

TEST(BytePlane, EncodeRowsWireMatchesPinnedDigest) {
  // The wire bytes set virtual time and dollars: this digest moves only
  // when the row wire format is changed on purpose.
  Rng rng(4242);
  std::vector<linalg::ActivationMap> corpus = {
      MakeRows(120, 256, 0.3, 1), MakeRows(40, 64, 1.0, 2),
      RandomRows(&rng, 60, 200)};
  linalg::ActivationMap saturated;
  for (int32_t r = 0; r < 30; ++r) {
    linalg::SparseVector vec;
    vec.dim = 100;
    for (int32_t s = 0; s < 100; s += 3) {
      vec.idx.push_back(s);
      vec.val.push_back(s % 2 == 0 ? 32.0f : 1.0f + 0.25f * s);
    }
    saturated.emplace(r, std::move(vec));
  }
  corpus.push_back(std::move(saturated));
  WireDigest digest;
  for (const linalg::ActivationMap& rows : corpus) {
    for (const WireCodec& codec :
         {WireCodec{}, LosslessCodec(true), QuantCodec(8)}) {
      for (const uint64_t cap : {uint64_t{0}, uint64_t{2048}}) {
        for (const RowChunk& chunk :
             EncodeRows(rows, AllIds(rows), cap, codec).chunks) {
          digest.Add(chunk.wire);
          digest.AddWord(chunk.raw_bytes);
          digest.AddWord(static_cast<uint64_t>(chunk.num_rows));
        }
      }
    }
  }
  EXPECT_EQ(digest.value(), 0xd8a88123987b1f0full) << std::hex << digest.value();
}

/// A byte-plane chunk assembled from its parts, `crc` defaulting to the
/// raw part's true CRC.
Bytes PlaneWire(const Bytes& packed, const Bytes& low,
                std::optional<uint32_t> crc = std::nullopt) {
  Bytes wire = {kPlaneTag};
  codec::PutVarint64(&wire, packed.size());
  AppendRaw(&wire, crc.value_or(codec::Crc32(low.data(), low.size())));
  wire.insert(wire.end(), packed.begin(), packed.end());
  wire.insert(wire.end(), low.begin(), low.end());
  return wire;
}

/// The parts of a well-formed byte-plane chunk.
struct PlaneParts {
  Bytes payload;  ///< the LZ part decompressed: structure, exponent plane
  Bytes low;      ///< the raw part
};
PlaneParts SplitPlaneWire(const Bytes& wire) {
  ByteReader reader(wire.data() + 1, wire.size() - 1);
  const uint64_t packed_len = *codec::GetVarint64(&reader);
  EXPECT_TRUE(reader.Read<uint32_t>().ok());
  const size_t at = 1 + reader.position();
  PlaneParts parts;
  parts.payload = *codec::LzDecompress(wire.data() + at, packed_len);
  parts.low.assign(wire.begin() + at + packed_len, wire.end());
  return parts;
}

TEST(BytePlane, DecodeRejectsHostileChunksAndLeavesOutUntouched) {
  const linalg::ActivationRows rows = RowsOfBits(NoisyBits(300, 77), 30);
  const Bytes wire =
      EncodeRows(Refs(rows), 0, LosslessCodec(true)).chunks[0].wire;
  ASSERT_EQ(wire[0], kPlaneTag);
  const PlaneParts parts = SplitPlaneWire(wire);
  ASSERT_EQ(PlaneWire(codec::LzCompress(parts.payload), parts.low), wire);
  // `out` already holds a row; every failure must leave it as it was.
  const linalg::ActivationRows before = RowsOfBits({0x3f800000u}, 1);
  auto expect_rejected = [&](const Bytes& hostile, const std::string& what) {
    linalg::ActivationRows out = before;
    const Status status = DecodeRows(hostile, &out);
    EXPECT_TRUE(status.code() == StatusCode::kDataLoss ||
                status.code() == StatusCode::kOutOfRange)
        << what << ": " << status.ToString();
    EXPECT_TRUE(SameBits(out, before)) << what;
  };
  for (size_t keep = 0; keep < wire.size(); ++keep) {
    expect_rejected(Bytes(wire.begin(), wire.begin() + keep),
                    "truncated to " + std::to_string(keep));
  }
  const Bytes packed = codec::LzCompress(parts.payload);
  // An LZ length that overruns the chunk.
  for (const uint64_t len : {packed.size() + parts.low.size() + 1,
                             uint64_t{1} << 40, ~uint64_t{0}}) {
    Bytes hostile = {kPlaneTag};
    codec::PutVarint64(&hostile, len);
    Bytes length_field;
    codec::PutVarint64(&length_field, packed.size());
    hostile.insert(hostile.end(), wire.begin() + 1 + length_field.size(),
                   wire.end());
    expect_rejected(hostile, "LZ length " + std::to_string(len));
  }
  // A raw part whose length is not a multiple of 3, its CRC recomputed.
  for (const int extra : {-2, -1, 1, 2}) {
    Bytes low = parts.low;
    if (extra < 0) {
      low.resize(low.size() - static_cast<size_t>(-extra));
    } else {
      low.insert(low.end(), static_cast<size_t>(extra), 0x5a);
    }
    expect_rejected(PlaneWire(packed, low), "raw part " + std::to_string(extra));
  }
  // An exponent plane shorter than the value count: one byte short, and
  // an LZ part too short to hold a plane at all.
  Bytes short_plane = parts.payload;
  short_plane.pop_back();
  expect_rejected(PlaneWire(codec::LzCompress(short_plane), parts.low),
                  "plane one byte short");
  expect_rejected(PlaneWire(codec::LzCompress(Bytes{2, 0, 1}), parts.low),
                  "no room for a plane");
  // A byte between the structure and the plane.
  Bytes padded = parts.payload;
  padded.insert(padded.end() - static_cast<std::ptrdiff_t>(parts.low.size() / 3),
                0);
  expect_rejected(PlaneWire(codec::LzCompress(padded), parts.low),
                  "byte after the last row");
  // A flipped CRC, and a flipped raw byte under the true CRC.
  const uint32_t crc = codec::Crc32(parts.low.data(), parts.low.size());
  for (int bit = 0; bit < 32; ++bit) {
    expect_rejected(PlaneWire(packed, parts.low, crc ^ (1u << bit)),
                    "CRC bit " + std::to_string(bit));
  }
  Bytes flipped = wire;
  flipped[wire.size() - 5] ^= 0x10;
  expect_rejected(flipped, "raw byte flipped");
}

TEST(Serialization, PlanRowsEmptySendMatchesMarkerChunk) {
  const linalg::ActivationMap empty;
  const EncodePlan plan =
      PlanRows(CollectRows(linalg::ActivationRows{}, {1, 2, 3}), 1024);
  const EncodeResult encoded =
      EncodeRows(empty, {1, 2, 3}, 1024, LosslessCodec(true));
  ASSERT_EQ(encoded.chunks.size(), 1u);
  EXPECT_EQ(plan.num_chunks, 1u);
  EXPECT_EQ(plan.raw_bytes, encoded.chunks[0].raw_bytes);
  EXPECT_EQ(plan.active_rows, 0);
}

}  // namespace
}  // namespace fsd::core
