// The flat per-layer data path: ActivationRows and its map edge, the flat
// kernel core against its map-edge overload, and flat send planning.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/serialization.h"
#include "linalg/activation_rows.h"
#include "linalg/csr.h"
#include "linalg/spmm.h"

namespace fsd {
namespace {

using linalg::ActivationMap;
using linalg::ActivationRows;
using linalg::RowView;
using linalg::SparseVector;

SparseVector Row(int32_t dim, std::vector<int32_t> idx,
                 std::vector<float> val) {
  SparseVector row;
  row.dim = dim;
  row.idx = std::move(idx);
  row.val = std::move(val);
  return row;
}

/// Bit-level equality of two maps: 0.0f == -0.0f would hide a sign flip.
void ExpectSameBits(const ActivationMap& a, const ActivationMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [id, row] : a) {
    ASSERT_TRUE(b.contains(id)) << "row " << id;
    const SparseVector& other = b.at(id);
    ASSERT_EQ(row.dim, other.dim) << "row " << id;
    ASSERT_EQ(row.idx, other.idx) << "row " << id;
    ASSERT_EQ(row.val.size(), other.val.size()) << "row " << id;
    for (size_t p = 0; p < row.val.size(); ++p) {
      ASSERT_EQ(std::bit_cast<uint32_t>(row.val[p]),
                std::bit_cast<uint32_t>(other.val[p]))
          << "row " << id << " pos " << p;
    }
  }
}

// --- ActivationRows and the map edge ---

TEST(FlatRows, MapRoundTripKeepsEmptyRowsAndDims) {
  const ActivationMap map = {
      {2, Row(8, {0, 5}, {1.0f, -2.0f})},
      {4, Row(8, {}, {})},  // an empty row survives as an entry
      {9, Row(3, {2}, {0.5f})},
  };
  const ActivationRows rows = ActivationRows::FromMap(map);
  EXPECT_EQ(rows.ids, (std::vector<int32_t>{2, 4, 9}));
  EXPECT_EQ(rows.dims, (std::vector<int32_t>{8, 8, 3}));
  EXPECT_EQ(rows.offsets, (std::vector<int64_t>{0, 2, 2, 3}));
  EXPECT_TRUE(rows.row(1).empty());
  EXPECT_EQ(rows.ToMap(), map);
  EXPECT_EQ(rows.Find(4), 1u);
  EXPECT_EQ(rows.Find(5), rows.size());

  const ActivationRows none = ActivationRows::FromMap({});
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.offsets.empty());
  EXPECT_TRUE(none.ToMap().empty());
}

TEST(FlatRows, UnsortedAndRepeatedIdsKeepTheLatestRow) {
  // Rows appended out of order with repeats, as a hostile chunk can carry
  // them; sorting keeps what repeated map assignments would keep.
  ActivationRows rows;
  ActivationMap want;
  const std::vector<std::pair<int32_t, SparseVector>> appended = {
      {7, Row(4, {1}, {1.0f})}, {3, Row(4, {0, 2}, {2.0f, 3.0f})},
      {7, Row(4, {3}, {4.0f})}, {5, Row(4, {}, {})},
      {3, Row(2, {1}, {5.0f})}, {1, Row(4, {0}, {6.0f})},
  };
  rows.offsets.push_back(0);
  for (const auto& [id, row] : appended) {
    rows.ids.push_back(id);
    rows.dims.push_back(row.dim);
    rows.idx.insert(rows.idx.end(), row.idx.begin(), row.idx.end());
    rows.val.insert(rows.val.end(), row.val.begin(), row.val.end());
    rows.offsets.push_back(rows.nnz());
    want[id] = row;
  }
  rows.SortKeepingLatest();
  EXPECT_EQ(rows.ids, (std::vector<int32_t>{1, 3, 5, 7}));
  EXPECT_EQ(rows.ToMap(), want);
  EXPECT_EQ(ActivationRows::FromMap(want), rows);
}

TEST(FlatRows, MergeRowsLetsTheLaterPartWin) {
  const ActivationRows a = ActivationRows::FromMap(
      {{1, Row(4, {0}, {1.0f})}, {3, Row(4, {1}, {2.0f})}});
  const ActivationRows b = ActivationRows::FromMap(
      {{2, Row(4, {2}, {3.0f})}, {3, Row(4, {3}, {4.0f})}});
  const ActivationRows* parts[] = {&a, &b};
  ActivationMap want = a.ToMap();
  b.MergeInto(&want);
  EXPECT_EQ(linalg::MergeRows(parts).ToMap(), want);
  EXPECT_EQ(want.at(3).idx, (std::vector<int32_t>{3}));
  EXPECT_TRUE(linalg::MergeRows({}).empty());
}

// --- the flat kernel core against its map-edge overload ---

struct Layer {
  linalg::CsrMatrix weights;
  ActivationMap input;
  std::vector<int32_t> rows;  ///< a strictly increasing subset
  int32_t batch = 0;
};

Layer RandomLayer(Rng* rng, int32_t batch) {
  Layer layer;
  layer.batch = batch;
  const int32_t n = 48 + static_cast<int32_t>(rng->NextBounded(150));
  std::vector<linalg::Triplet> triplets;
  for (int32_t i = 0; i < n; ++i) {
    const int nnz = 1 + static_cast<int>(rng->NextBounded(20));
    for (int k = 0; k < nnz; ++k) {
      triplets.push_back({i, static_cast<int32_t>(rng->NextBounded(n)),
                          static_cast<float>(rng->NextUniform(-1.0, 1.0))});
    }
  }
  layer.weights = linalg::CsrMatrix::FromTriplets(n, n, triplets);
  for (int32_t j = 0; j < n; ++j) {
    SparseVector row;
    row.dim = batch;
    for (int32_t s = 0; s < batch; ++s) {
      if (rng->NextBool(0.35)) {
        row.idx.push_back(s);
        row.val.push_back(static_cast<float>(rng->NextUniform(-2.0, 2.0)));
      }
    }
    if (!row.empty()) layer.input.emplace(j, std::move(row));
  }
  for (int32_t i = 0; i < n; ++i) {
    if (rng->NextBool(0.6)) layer.rows.push_back(i);
  }
  return layer;
}

std::vector<RowView> TableOf(const ActivationRows& rows, int32_t cols) {
  std::vector<RowView> table(static_cast<size_t>(cols));
  rows.ViewInto(table);
  return table;
}

TEST(FlatKernel, MatchesTheMapAdaptersForBothKernels) {
  // Batches of one lane, partial and full 64-lane tiles, one lane past a
  // tile and past two (the staged multi-tile output).
  Rng rng(2323);
  for (const linalg::ForwardKernel kernel :
       {linalg::ForwardKernel::kPortable, linalg::ForwardKernel::kVectorized}) {
    linalg::SetLayerForwardKernel(kernel);
    for (const int32_t batch : {1, 8, 16, 64, 65, 130}) {
      SCOPED_TRACE(testing::Message()
                   << linalg::LayerForwardKernelName() << " batch " << batch);
      const Layer layer = RandomLayer(&rng, batch);
      const ActivationRows input = ActivationRows::FromMap(layer.input);
      const std::vector<RowView> table =
          TableOf(input, layer.weights.cols());
      const linalg::RowProvider provider =
          [&layer](int32_t row) -> const SparseVector* {
        auto it = layer.input.find(row);
        return it == layer.input.end() ? nullptr : &it->second;
      };

      linalg::LayerForwardStats flat_stats, map_stats;
      ActivationRows flat;
      linalg::LayerForward(layer.weights, layer.rows, table, -0.3f, 16.0f,
                           batch, &flat, &flat_stats);
      const ActivationMap map =
          linalg::LayerForward(layer.weights, layer.rows, provider, -0.3f,
                               16.0f, batch, &map_stats);
      ASSERT_FALSE(map.empty());
      ExpectSameBits(flat.ToMap(), map);
      EXPECT_EQ(flat, ActivationRows::FromMap(map));
      EXPECT_EQ(flat_stats, map_stats);
      EXPECT_EQ(linalg::CountLayerMacs(layer.weights, layer.rows, table),
                flat_stats.macs);

      ActivationRows all;
      linalg::LayerForwardAll(layer.weights, table, -0.3f, 16.0f, batch,
                              &all);

      // A reused output buffer holds exactly the new result.
      linalg::LayerForward(layer.weights, layer.rows, table, -0.3f, 16.0f,
                           batch, &all);
      EXPECT_EQ(all, flat);
    }
  }
  linalg::SetLayerForwardKernel(linalg::ForwardKernel::kAuto);
}

TEST(FlatKernel, ConcurrentCallsMatchSerialByteForByte) {
  // The staged multi-tile output lives in thread_local scratch too.
  Rng rng(77);
  std::vector<Layer> layers;
  for (const int32_t batch : {8, 65, 130, 200}) {
    layers.push_back(RandomLayer(&rng, batch));
  }
  std::vector<ActivationRows> inputs;
  for (const Layer& layer : layers) {
    inputs.push_back(ActivationRows::FromMap(layer.input));
  }
  std::vector<ActivationRows> serial(layers.size());
  for (size_t i = 0; i < layers.size(); ++i) {
    linalg::LayerForward(layers[i].weights, layers[i].rows,
                         TableOf(inputs[i], layers[i].weights.cols()), -0.3f,
                         16.0f, layers[i].batch, &serial[i]);
  }
  std::vector<std::vector<ActivationRows>> threaded(
      4, std::vector<ActivationRows>(layers.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < threaded.size(); ++t) {
    threads.emplace_back([&, t]() {
      for (int repeat = 0; repeat < 3; ++repeat) {
        for (size_t k = 0; k < layers.size(); ++k) {
          const size_t i = (k + t) % layers.size();
          linalg::LayerForward(layers[i].weights, layers[i].rows,
                               TableOf(inputs[i], layers[i].weights.cols()),
                               -0.3f, 16.0f, layers[i].batch, &threaded[t][i]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < threaded.size(); ++t) {
    for (size_t i = 0; i < layers.size(); ++i) {
      EXPECT_EQ(threaded[t][i], serial[i]) << "thread " << t << " layer " << i;
    }
  }
}

// --- flat send planning ---

TEST(FlatEncode, PlanRowsAgreesWithEncodeRowsOnFlatSources) {
  const std::vector<core::WireCodec> codecs = {
      core::WireCodec{}, core::LosslessCodec(true), core::QuantCodec(8),
      core::QuantCodec(4, false)};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 53);
    ActivationMap map;
    const int32_t rows = static_cast<int32_t>(rng.NextBounded(120));
    for (int32_t r = 0; r < rows; ++r) {
      SparseVector row;
      row.dim = 96;
      for (int32_t s = 0; s < 96; ++s) {
        if (rng.NextBool(0.3)) {
          row.idx.push_back(s);
          row.val.push_back(static_cast<float>(rng.NextUniform(0.01, 32.0)));
        }
      }
      map.emplace(r * 3, std::move(row));  // some rows stay empty
    }
    const ActivationRows source = ActivationRows::FromMap(map);
    // Present, empty and absent ids, ascending then out of order.
    std::vector<int32_t> ids;
    for (int32_t id = 0; id < rows * 3 + 2; id += 2) ids.push_back(id);
    ids.push_back(100000);
    ids.push_back(3);
    ids.push_back(0);
    const std::vector<core::RowRef> refs = core::CollectRows(source, ids);
    for (const uint64_t cap : {uint64_t{0}, uint64_t{64}, uint64_t{700},
                               uint64_t{1} << 20}) {
      const core::EncodePlan plan = core::PlanRows(refs, cap);
      for (const core::WireCodec& codec : codecs) {
        const core::EncodeResult encoded = core::EncodeRows(refs, cap, codec);
        uint64_t raw_bytes = 0;
        for (const core::RowChunk& chunk : encoded.chunks) {
          raw_bytes += chunk.raw_bytes;
        }
        ASSERT_EQ(plan.raw_bytes, raw_bytes) << "seed " << seed << " cap "
                                             << cap;
        ASSERT_EQ(plan.num_chunks, encoded.chunks.size());
        ASSERT_EQ(plan.active_rows, encoded.active_rows);
        ASSERT_EQ(plan.active_nnz, encoded.active_nnz);
        // The map edge produces the same wire bytes.
        const core::EncodeResult from_map =
            core::EncodeRows(map, ids, cap, codec);
        ASSERT_EQ(from_map.chunks.size(), encoded.chunks.size());
        for (size_t c = 0; c < encoded.chunks.size(); ++c) {
          ASSERT_EQ(from_map.chunks[c].wire, encoded.chunks[c].wire);
        }
      }
    }
  }
}

}  // namespace
}  // namespace fsd
