#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "model/sparse_dnn.h"
#include "part/hypergraph.h"
#include "part/model_partition.h"
#include "part/partitioner.h"

namespace fsd::part {
namespace {

Hypergraph TinyHypergraph() {
  // 6 vertices, 3 nets: {0,1,2}, {2,3}, {3,4,5}.
  return Hypergraph::Build(6, {1, 1, 1, 1, 1, 1},
                           {{0, 1, 2}, {2, 3}, {3, 4, 5}}, {1, 1, 1});
}

TEST(Hypergraph, BuildDropsDegenerateNetsAndDedupesPins) {
  Hypergraph hg = Hypergraph::Build(4, {1, 1, 1, 1},
                                    {{0, 0, 1}, {2}, {}, {1, 3}}, {5, 9, 9, 2});
  EXPECT_EQ(hg.num_nets(), 2);  // single-pin and empty nets dropped
  EXPECT_EQ(hg.net_size(0), 2);
  EXPECT_EQ(hg.net_cost(0), 5);
  EXPECT_EQ(hg.net_cost(1), 2);
  EXPECT_EQ(hg.num_pins(), 4);
}

TEST(Hypergraph, ConnectivityMinusOne) {
  Hypergraph hg = TinyHypergraph();
  // All in one part: zero.
  EXPECT_EQ(hg.ConnectivityMinusOne({0, 0, 0, 0, 0, 0}, 1), 0);
  // Split {0,1,2} vs {3,4,5}: net0 uncut, net1 cut (2 parts -> 1),
  // net2 uncut.
  EXPECT_EQ(hg.ConnectivityMinusOne({0, 0, 0, 1, 1, 1}, 2), 1);
  // Fully scattered: net0 spans 3 parts (+2), net1 spans 2 (+1),
  // net2 spans 3 (+2).
  EXPECT_EQ(hg.ConnectivityMinusOne({0, 1, 2, 3, 4, 5}, 6), 5);
}

TEST(Hypergraph, VertexNetIncidence) {
  Hypergraph hg = TinyHypergraph();
  std::vector<int64_t> nets_of_2;
  hg.ForEachNetOf(2, [&](int64_t e) { nets_of_2.push_back(e); });
  EXPECT_EQ(nets_of_2.size(), 2u);  // vertex 2 pins nets 0 and 1
}

class PartitionerSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionerSweep, CoversAllVerticesWithinBalance) {
  auto [neurons, parts] = GetParam();
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = 4;
  auto dnn = model::GenerateSparseDnn(config);
  ASSERT_TRUE(dnn.ok());
  Hypergraph hg = BuildDnnHypergraph(*dnn, 2);

  PartitionerOptions options;
  auto result = PartitionHypergraph(hg, parts, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignment.size(), static_cast<size_t>(neurons));
  std::set<int32_t> used;
  for (int32_t p : result->assignment) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, parts);
    used.insert(p);
  }
  EXPECT_EQ(static_cast<int32_t>(used.size()), parts);  // no empty part
  EXPECT_LE(result->imbalance, options.epsilon + 0.05);
  EXPECT_EQ(result->cut_cost,
            hg.ConnectivityMinusOne(result->assignment, parts));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PartitionerSweep,
                         ::testing::Values(std::make_tuple(256, 2),
                                           std::make_tuple(256, 7),
                                           std::make_tuple(512, 8),
                                           std::make_tuple(1024, 20),
                                           std::make_tuple(512, 3)));

TEST(Partitioner, HgpBeatsRandomOnStructuredModels) {
  model::SparseDnnConfig config;
  config.neurons = 1024;
  config.layers = 4;
  auto dnn = model::GenerateSparseDnn(config);
  ASSERT_TRUE(dnn.ok());
  Hypergraph hg = BuildDnnHypergraph(*dnn, 2);
  auto hgp = PartitionHypergraph(hg, 8, PartitionerOptions{});
  ASSERT_TRUE(hgp.ok());
  PartitionResult rp = PartitionRandom(hg, 8, 1);
  PartitionResult block = PartitionBlock(hg, 8);
  // HGP-DNN must clearly beat random placement and never lose to naive
  // contiguity. (At this small scale the local window spans a sizeable
  // fraction of each block, so the gap is structurally modest; the ~1 OOM
  // separation of paper Table III emerges at N=16384 — see
  // bench_table3_partitioning.)
  EXPECT_LT(hgp->cut_cost, rp.cut_cost * 0.8);
  EXPECT_LE(hgp->cut_cost, block.cut_cost);
}

TEST(Partitioner, SinglePartIsTrivial) {
  Hypergraph hg = TinyHypergraph();
  auto result = PartitionHypergraph(hg, 1, PartitionerOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cut_cost, 0);
}

TEST(Partitioner, RejectsBadArguments) {
  Hypergraph hg = TinyHypergraph();
  EXPECT_FALSE(PartitionHypergraph(hg, 0, PartitionerOptions{}).ok());
  EXPECT_FALSE(PartitionHypergraph(hg, 7, PartitionerOptions{}).ok());
}

int32_t PartsUsed(const PartitionResult& result) {
  return static_cast<int32_t>(
      std::set<int32_t>(result.assignment.begin(), result.assignment.end())
          .size());
}

TEST(Partitioner, TinyHypergraphFillsEveryPart) {
  const Hypergraph hg = TinyHypergraph();
  for (int32_t parts = 1; parts <= hg.num_vertices(); ++parts) {
    auto result = PartitionHypergraph(hg, parts, PartitionerOptions{});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PartsUsed(*result), parts) << "parts=" << parts;
    EXPECT_EQ(result->cut_cost,
              hg.ConnectivityMinusOne(result->assignment, parts));
  }
}

TEST(Partitioner, PathFillsEveryPart) {
  // 0-1-2-3 into 4 parts: each side of the first bisection must keep two
  // vertices for its two parts, whatever the weight balance prefers.
  const Hypergraph hg =
      Hypergraph::Build(4, {1, 1, 1, 1}, {{0, 1}, {1, 2}, {2, 3}}, {1, 1, 1});
  auto result = PartitionHypergraph(hg, 4, PartitionerOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(PartsUsed(*result), 4);
  EXPECT_EQ(result->cut_cost, 3);
}

TEST(Partitioner, SmallRandomHypergraphsFillEveryPart) {
  Rng rng(11);
  for (int32_t trial = 0; trial < 300; ++trial) {
    const int32_t n = 4 + static_cast<int32_t>(rng.NextBounded(37));
    std::vector<int64_t> weights(n);
    for (int64_t& w : weights) w = 1 + static_cast<int64_t>(rng.NextBounded(3));
    std::vector<std::vector<int32_t>> nets(n);
    std::vector<int64_t> costs(n);
    for (int32_t e = 0; e < n; ++e) {
      const int32_t size = 2 + static_cast<int32_t>(rng.NextBounded(4));
      for (int32_t i = 0; i < size; ++i) {
        nets[e].push_back(static_cast<int32_t>(rng.NextBounded(n)));
      }
      costs[e] = 1 + static_cast<int64_t>(rng.NextBounded(3));
    }
    const Hypergraph hg =
        Hypergraph::Build(n, std::move(weights), nets, costs);
    const int32_t parts = 1 + static_cast<int32_t>(rng.NextBounded(n));
    PartitionerOptions options;
    options.seed = rng.Next();
    auto result = PartitionHypergraph(hg, parts, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(PartsUsed(*result), parts)
        << "trial " << trial << ": n=" << n << " parts=" << parts;
  }
}

TEST(ModelPartition, EveryWorkerOwnsRows) {
  model::SparseDnnConfig config;
  config.neurons = 64;
  config.layers = 3;
  config.window = 4;
  auto dnn = model::GenerateSparseDnn(config);
  ASSERT_TRUE(dnn.ok());
  for (int32_t parts : {40, 48, 57, 64}) {
    auto partition = PartitionModel(*dnn, parts, ModelPartitionOptions{});
    ASSERT_TRUE(partition.ok());
    for (int32_t m = 0; m < parts; ++m) {
      EXPECT_FALSE(partition->owned_rows[m].empty())
          << "parts=" << parts << " worker " << m;
    }
  }
}

TEST(Partitioner, DeterministicForSeed) {
  model::SparseDnnConfig config;
  config.neurons = 512;
  config.layers = 3;
  auto dnn = model::GenerateSparseDnn(config);
  Hypergraph hg = BuildDnnHypergraph(*dnn, 2);
  PartitionerOptions options;
  auto a = PartitionHypergraph(hg, 6, options);
  auto b = PartitionHypergraph(hg, 6, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
}

// ---------------------------------------------------------------------------
// Pinned partitions: FNV-1a digests of the assignment and objective of the
// perfbench model shapes (generator seed 7, default options) and of a
// synthetic hypergraph with weighted vertices and non-unit net costs. A
// speedup of the partitioner must leave every digest unchanged; a change
// that means to move partitions re-pins them on purpose.

class Fnv1a {
 public:
  template <typename T>
  void Add(T value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (size_t i = 0; i < sizeof(value); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t AssignmentDigest(const std::vector<int32_t>& assignment,
                          int64_t cut_cost, int64_t row_transfers) {
  Fnv1a fnv;
  fnv.Add(static_cast<uint64_t>(assignment.size()));
  for (int32_t part : assignment) fnv.Add(part);
  fnv.Add(cut_cost);
  fnv.Add(row_transfers);
  return fnv.hash();
}

struct PinnedModelShape {
  int32_t neurons;
  int32_t layers;
  int32_t parts;
  int64_t cut_cost;
  int64_t row_transfers;
  uint64_t digest;
};

TEST(PinnedPartitions, PerfbenchModelShapes) {
  const PinnedModelShape shapes[] = {
      {1024, 8, 8, 9626, 39495, 0x57157bde82a7c371ull},
      {4096, 8, 4, 6444, 26243, 0x141a29000d421ce4ull},
      {1024, 4, 4, 5317, 10949, 0xab81631a512ebc38ull},
  };
  for (const PinnedModelShape& shape : shapes) {
    SCOPED_TRACE(::testing::Message() << "N=" << shape.neurons
                                      << " L=" << shape.layers
                                      << " P=" << shape.parts);
    model::SparseDnnConfig config;
    config.neurons = shape.neurons;
    config.layers = shape.layers;
    config.seed = 7;
    auto dnn = model::GenerateSparseDnn(config);
    ASSERT_TRUE(dnn.ok());
    auto partition = PartitionModel(*dnn, shape.parts, ModelPartitionOptions{});
    ASSERT_TRUE(partition.ok());
    EXPECT_EQ(partition->cut_cost, shape.cut_cost);
    EXPECT_EQ(partition->total_row_transfers, shape.row_transfers);
    const uint64_t digest =
        AssignmentDigest(partition->assignment, partition->cut_cost,
                         partition->total_row_transfers);
    EXPECT_EQ(digest, shape.digest) << std::hex << "0x" << digest;
  }
}

/// 900 vertices of weight 1-4 on a ring; each net joins a vertex with 1-5
/// neighbours within +-12 (a few reach anywhere) at cost 1-7.
Hypergraph WeightedRingHypergraph() {
  constexpr int32_t kVertices = 900;
  Rng rng(2024);
  std::vector<int64_t> weights(kVertices);
  for (int64_t& w : weights) w = 1 + static_cast<int64_t>(rng.NextBounded(4));
  std::vector<std::vector<int32_t>> nets;
  std::vector<int64_t> costs;
  for (int32_t v = 0; v < kVertices; ++v) {
    for (int32_t k = 0; k < 2; ++k) {
      std::vector<int32_t> pins = {v};
      const int32_t extra = 1 + static_cast<int32_t>(rng.NextBounded(5));
      for (int32_t i = 0; i < extra; ++i) {
        const int32_t offset =
            rng.NextBool(0.05)
                ? static_cast<int32_t>(rng.NextBounded(kVertices))
                : static_cast<int32_t>(rng.NextBounded(25)) - 12;
        pins.push_back((v + offset + kVertices) % kVertices);
      }
      nets.push_back(std::move(pins));
      costs.push_back(1 + static_cast<int64_t>(rng.NextBounded(7)));
    }
  }
  return Hypergraph::Build(kVertices, std::move(weights), nets, costs);
}

TEST(PinnedPartitions, WeightedHypergraphSixParts) {
  const Hypergraph hg = WeightedRingHypergraph();
  auto result = PartitionHypergraph(hg, 6, PartitionerOptions{});
  ASSERT_TRUE(result.ok());
  const uint64_t digest =
      AssignmentDigest(result->assignment, result->cut_cost, 0);
  EXPECT_EQ(result->cut_cost, 1719);
  EXPECT_EQ(digest, 0xe64a3d6ffdfcc982ull) << std::hex << "0x" << digest;
}

TEST(PartitionSchemes, Names) {
  EXPECT_EQ(PartitionSchemeName(PartitionScheme::kHypergraph), "HGP-DNN");
  EXPECT_EQ(PartitionSchemeName(PartitionScheme::kRandom), "RP");
  EXPECT_EQ(PartitionSchemeName(PartitionScheme::kBlock), "BLOCK");
}

// ---------------------------------------------------------------------------
// Model partition (send/recv map) invariants
// ---------------------------------------------------------------------------

class ModelPartitionInvariants
    : public ::testing::TestWithParam<std::tuple<PartitionScheme, int>> {};

TEST_P(ModelPartitionInvariants, MapsAreConsistent) {
  auto [scheme, parts] = GetParam();
  model::SparseDnnConfig config;
  config.neurons = 512;
  config.layers = 5;
  auto dnn = model::GenerateSparseDnn(config);
  ASSERT_TRUE(dnn.ok());
  ModelPartitionOptions options;
  options.scheme = scheme;
  auto partition = PartitionModel(*dnn, parts, options);
  ASSERT_TRUE(partition.ok());

  // Ownership covers every row exactly once.
  std::vector<int32_t> seen(512, 0);
  for (int32_t m = 0; m < parts; ++m) {
    for (int32_t row : partition->owned_rows[m]) {
      EXPECT_EQ(partition->assignment[row], m);
      ++seen[row];
    }
  }
  for (int32_t count : seen) EXPECT_EQ(count, 1);

  int64_t transfers = 0;
  for (int32_t k = 0; k < 5; ++k) {
    const LayerComm& comm = partition->layers[k];
    ASSERT_EQ(comm.send.size(), static_cast<size_t>(parts));
    ASSERT_EQ(comm.recv.size(), static_cast<size_t>(parts));
    // (1) send/recv are exact mirrors.
    for (int32_t m = 0; m < parts; ++m) {
      for (const SendEntry& entry : comm.send[m]) {
        transfers += static_cast<int64_t>(entry.rows.size());
        EXPECT_NE(entry.peer, m);  // never send to self
        bool found = false;
        for (const SendEntry& recv : comm.recv[entry.peer]) {
          if (recv.peer == m) {
            EXPECT_EQ(recv.rows, entry.rows);
            found = true;
          }
        }
        EXPECT_TRUE(found);
        // (2) the sender owns every row it ships.
        for (int32_t row : entry.rows) {
          EXPECT_EQ(partition->assignment[row], m);
        }
      }
    }
    // (3) completeness: every cross-part weight dependency is covered.
    const linalg::CsrMatrix& w = dnn->weights[k];
    for (int32_t i = 0; i < w.rows(); ++i) {
      const int32_t consumer = partition->assignment[i];
      w.ForEachInRow(i, [&](int32_t j, float) {
        const int32_t owner = partition->assignment[j];
        if (owner == consumer) return;
        bool covered = false;
        for (const SendEntry& entry : comm.recv[consumer]) {
          if (entry.peer == owner &&
              std::binary_search(entry.rows.begin(), entry.rows.end(), j)) {
            covered = true;
          }
        }
        EXPECT_TRUE(covered) << "layer " << k << " row " << j;
      });
    }
  }
  EXPECT_EQ(partition->total_row_transfers, transfers);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelPartitionInvariants,
    ::testing::Combine(::testing::Values(PartitionScheme::kHypergraph,
                                         PartitionScheme::kRandom,
                                         PartitionScheme::kBlock),
                       ::testing::Values(2, 5, 8)));

TEST(ModelPartition, SingleWorkerHasNoComm) {
  model::SparseDnnConfig config;
  config.neurons = 128;
  config.layers = 3;
  auto dnn = model::GenerateSparseDnn(config);
  auto partition = PartitionModel(*dnn, 1, ModelPartitionOptions{});
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->total_row_transfers, 0);
  EXPECT_EQ(partition->owned_rows[0].size(), 128u);
  for (const LayerComm& comm : partition->layers) {
    EXPECT_TRUE(comm.send[0].empty());
    EXPECT_TRUE(comm.recv[0].empty());
  }
}

TEST(ModelPartition, WeightShareBytesSumsToModel) {
  model::SparseDnnConfig config;
  config.neurons = 256;
  config.layers = 4;
  auto dnn = model::GenerateSparseDnn(config);
  auto partition = PartitionModel(*dnn, 4, ModelPartitionOptions{});
  ASSERT_TRUE(partition.ok());
  uint64_t total = 0;
  for (int32_t m = 0; m < 4; ++m) {
    total += partition->WeightShareBytes(*dnn, m);
  }
  // Nonzero payload portion must sum exactly; per-row metadata differs from
  // the monolithic layout only by the row-pointer representation.
  EXPECT_EQ(total, static_cast<uint64_t>(dnn->TotalNnz()) * 8 +
                       4ull * 256 * 8);
}

TEST(ModelPartition, RejectsBadArguments) {
  model::SparseDnnConfig config;
  config.neurons = 64;
  config.layers = 2;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_FALSE(PartitionModel(*dnn, 0, ModelPartitionOptions{}).ok());
  EXPECT_FALSE(PartitionModel(*dnn, 65, ModelPartitionOptions{}).ok());
}

}  // namespace
}  // namespace fsd::part
