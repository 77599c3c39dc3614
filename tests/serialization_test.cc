#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

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
