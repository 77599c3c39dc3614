#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <thread>
#include <utility>
#include <tuple>

#include "common/rng.h"
#include "linalg/csr.h"
#include "linalg/spmm.h"

namespace fsd::linalg {
namespace {

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      3, 4, {{2, 1, 1.0f}, {0, 3, 2.0f}, {0, 3, 3.0f}, {1, 0, -1.0f}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 3);  // duplicate (0,3) merged
  EXPECT_EQ(m.RowNnz(0), 1);
  std::vector<float> dense = m.ToDense();
  EXPECT_EQ(dense[0 * 4 + 3], 5.0f);
  EXPECT_EQ(dense[1 * 4 + 0], -1.0f);
  EXPECT_EQ(dense[2 * 4 + 1], 1.0f);
}

TEST(Csr, CancellingDuplicatesDropped) {
  CsrMatrix m =
      CsrMatrix::FromTriplets(1, 2, {{0, 1, 2.0f}, {0, 1, -2.0f}});
  EXPECT_EQ(m.nnz(), 0);
}

TEST(SparseVector, FromDenseAndAxpy) {
  const float dense[] = {0.0f, 1.5f, 0.0f, -2.0f};
  SparseVector v = SparseVector::FromDense(dense, 4);
  EXPECT_EQ(v.nnz(), 2u);
  EXPECT_EQ(v.idx, (std::vector<int32_t>{1, 3}));
  float acc[4] = {0, 0, 0, 0};
  v.AxpyInto(2.0f, acc);
  EXPECT_EQ(acc[1], 3.0f);
  EXPECT_EQ(acc[3], -4.0f);
}

/// A kernel row table over the rows of `x`: `views` points into `rows`.
struct RowTable {
  RowTable(const ActivationMap& x, int32_t cols)
      : rows(ActivationRows::FromMap(x)), views(static_cast<size_t>(cols)) {
    rows.ViewInto(views);
  }
  RowTable(const RowTable&) = delete;
  RowTable& operator=(const RowTable&) = delete;

  ActivationRows rows;
  std::vector<RowView> views;
};

/// LayerForwardAll over the rows of `x`, returned as a map.
ActivationMap ForwardAll(const CsrMatrix& w, const ActivationMap& x,
                         float bias, float relu_cap, int32_t batch,
                         LayerForwardStats* stats = nullptr) {
  const RowTable table(x, w.cols());
  ActivationRows out;
  LayerForwardAll(w, table.views, bias, relu_cap, batch, &out, stats);
  return out.ToMap();
}

// ---------------------------------------------------------------------------
// LayerForward vs a dense reference implementation (property test).
// ---------------------------------------------------------------------------

struct DenseRef {
  // Computes relu_cap(min(relu(W x + b))) densely.
  static std::vector<float> Forward(const CsrMatrix& w,
                                    const std::vector<float>& x_dense,
                                    int32_t batch, float bias,
                                    float relu_cap) {
    std::vector<float> out(static_cast<size_t>(w.rows()) * batch, 0.0f);
    for (int32_t i = 0; i < w.rows(); ++i) {
      std::vector<float> acc(batch, 0.0f);
      bool touched = false;
      w.ForEachInRow(i, [&](int32_t j, float weight) {
        for (int32_t s = 0; s < batch; ++s) {
          const float xv = x_dense[static_cast<size_t>(j) * batch + s];
          if (xv != 0.0f) {
            acc[s] += weight * xv;
            touched = true;
          }
        }
      });
      if (!touched) continue;  // matches the sparse kernel's skip
      for (int32_t s = 0; s < batch; ++s) {
        if (acc[s] == 0.0f) continue;  // untouched position stays zero
        float v = acc[s] + bias;
        if (relu_cap > 0.0f) {
          v = std::max(0.0f, std::min(relu_cap, v));
        }
        out[static_cast<size_t>(i) * batch + s] = v;
      }
    }
    return out;
  }
};

class LayerForwardProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>> {};

TEST_P(LayerForwardProperty, MatchesDenseReference) {
  auto [n, batch, nnz_per_row, density] = GetParam();
  Rng rng(n * 1000 + batch);
  std::vector<Triplet> triplets;
  for (int32_t i = 0; i < n; ++i) {
    for (int k = 0; k < nnz_per_row; ++k) {
      triplets.push_back(
          {i, static_cast<int32_t>(rng.NextBounded(n)),
           static_cast<float>(rng.NextUniform(-0.5, 1.0))});
    }
  }
  const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);

  // Random sparse input.
  ActivationMap x;
  std::vector<float> x_dense(static_cast<size_t>(n) * batch, 0.0f);
  for (int32_t j = 0; j < n; ++j) {
    SparseVector row;
    row.dim = batch;
    for (int32_t s = 0; s < batch; ++s) {
      if (rng.NextBool(density)) {
        const float v = static_cast<float>(rng.NextUniform(0.1, 2.0));
        row.idx.push_back(s);
        row.val.push_back(v);
        x_dense[static_cast<size_t>(j) * batch + s] = v;
      }
    }
    if (!row.empty()) x.emplace(j, std::move(row));
  }

  const float bias = -0.25f;
  const float cap = 4.0f;
  LayerForwardStats stats;
  ActivationMap out = ForwardAll(w, x, bias, cap, batch, &stats);

  const std::vector<float> expected =
      DenseRef::Forward(w, x_dense, batch, bias, cap);
  // Compare element-wise (tolerance: accumulation order differs).
  int64_t nnz_seen = 0;
  for (int32_t i = 0; i < n; ++i) {
    const SparseVector* row = nullptr;
    auto it = out.find(i);
    if (it != out.end()) row = &it->second;
    for (int32_t s = 0; s < batch; ++s) {
      const float want = expected[static_cast<size_t>(i) * batch + s];
      float got = 0.0f;
      if (row != nullptr) {
        auto pos = std::lower_bound(row->idx.begin(), row->idx.end(), s);
        if (pos != row->idx.end() && *pos == s) {
          got = row->val[pos - row->idx.begin()];
        }
      }
      ASSERT_NEAR(want, got, 1e-4) << "row " << i << " sample " << s;
      if (got != 0.0f) ++nnz_seen;
    }
  }
  EXPECT_EQ(stats.output_nnz, nnz_seen);
  EXPECT_GT(stats.macs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LayerForwardProperty,
    ::testing::Values(std::make_tuple(16, 4, 3, 0.5),
                      std::make_tuple(64, 8, 8, 0.3),
                      std::make_tuple(128, 16, 16, 0.15),
                      std::make_tuple(256, 5, 32, 0.05),
                      std::make_tuple(32, 32, 4, 0.9)));

TEST(LayerForward, SubsetMatchesUnion) {
  // Computing rows {evens} and {odds} separately must equal all rows.
  Rng rng(99);
  std::vector<Triplet> triplets;
  const int32_t n = 64;
  for (int32_t i = 0; i < n; ++i) {
    for (int k = 0; k < 6; ++k) {
      triplets.push_back({i, static_cast<int32_t>(rng.NextBounded(n)),
                          static_cast<float>(rng.NextUniform(0.0, 1.0))});
    }
  }
  const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);
  ActivationMap x;
  for (int32_t j = 0; j < n; j += 2) {
    SparseVector row;
    row.dim = 4;
    row.idx = {0, 2};
    row.val = {1.0f, 0.5f};
    x.emplace(j, row);
  }
  auto provider = [&x](int32_t row) -> const SparseVector* {
    auto it = x.find(row);
    return it == x.end() ? nullptr : &it->second;
  };
  ActivationMap all = ForwardAll(w, x, -0.1f, 32.0f, 4);
  std::vector<int32_t> evens, odds;
  for (int32_t i = 0; i < n; ++i) ((i % 2 == 0) ? evens : odds).push_back(i);
  ActivationMap even_out = LayerForward(w, evens, provider, -0.1f, 32.0f, 4);
  ActivationMap odd_out = LayerForward(w, odds, provider, -0.1f, 32.0f, 4);
  ActivationMap merged = even_out;
  for (auto& [k, v] : odd_out) merged.emplace(k, v);
  EXPECT_EQ(all.size(), merged.size());
  for (const auto& [row, vec] : all) {
    ASSERT_TRUE(merged.contains(row));
    EXPECT_EQ(vec, merged.at(row)) << row;
  }
}

TEST(LayerForward, ReluClampAndThreshold) {
  // Single weight of 10 on an input of 10 -> 100, clamped to 32.
  const CsrMatrix w = CsrMatrix::FromTriplets(2, 1, {{0, 0, 10.0f},
                                                     {1, 0, -1.0f}});
  ActivationMap x;
  SparseVector row;
  row.dim = 1;
  row.idx = {0};
  row.val = {10.0f};
  x.emplace(0, row);
  ActivationMap out = ForwardAll(w, x, 0.0f, 32.0f, 1);
  ASSERT_EQ(out.size(), 1u);                 // negative row ReLU'd away
  EXPECT_EQ(out.at(0).val[0], 32.0f);        // clamped
}

TEST(LayerForward, KernelsProduceByteIdenticalOutputs) {
  // The vectorized kernel must match the portable one bit-for-bit — same
  // ActivationMap bytes, same stats — across randomized layers, with
  // batches from one lane to past three 64-lane tiles. Where the AVX2 path
  // is compiled out or the CPU lacks it, both runs take the portable
  // kernel and the comparison is trivially exact.
  Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    const int32_t n = 32 + static_cast<int32_t>(rng.NextBounded(200));
    const int32_t batch = 1 + static_cast<int32_t>(rng.NextBounded(200));
    const int nnz_per_row = 1 + static_cast<int>(rng.NextBounded(24));
    std::vector<Triplet> triplets;
    for (int32_t i = 0; i < n; ++i) {
      for (int k = 0; k < nnz_per_row; ++k) {
        triplets.push_back({i, static_cast<int32_t>(rng.NextBounded(n)),
                            static_cast<float>(rng.NextUniform(-1.0, 1.0))});
      }
    }
    const CsrMatrix w = CsrMatrix::FromTriplets(n, n, triplets);

    ActivationMap x;
    for (int32_t j = 0; j < n; ++j) {
      SparseVector row;
      row.dim = batch;
      // Mix of contiguous runs and scattered samples.
      const bool contiguous = rng.NextBool(0.5);
      for (int32_t s = 0; s < batch; ++s) {
        if (contiguous ? s < batch / 2 : rng.NextBool(0.3)) {
          row.idx.push_back(s);
          row.val.push_back(static_cast<float>(rng.NextUniform(-2.0, 2.0)));
        }
      }
      if (!row.empty()) x.emplace(j, std::move(row));
    }

    SetLayerForwardKernel(ForwardKernel::kPortable);
    LayerForwardStats portable_stats;
    const ActivationMap portable =
        ForwardAll(w, x, -0.2f, 8.0f, batch, &portable_stats);

    SetLayerForwardKernel(ForwardKernel::kVectorized);
    LayerForwardStats vector_stats;
    const ActivationMap vectorized =
        ForwardAll(w, x, -0.2f, 8.0f, batch, &vector_stats);
    SetLayerForwardKernel(ForwardKernel::kAuto);

    ASSERT_EQ(portable.size(), vectorized.size()) << "trial " << trial;
    for (const auto& [row, vec] : portable) {
      ASSERT_TRUE(vectorized.contains(row)) << "trial " << trial;
      const SparseVector& other = vectorized.at(row);
      ASSERT_EQ(vec.idx, other.idx) << "trial " << trial << " row " << row;
      ASSERT_EQ(vec.dim, other.dim) << "trial " << trial << " row " << row;
      for (size_t p = 0; p < vec.val.size(); ++p) {
        // Bit-level comparison: 0.0f == -0.0f would hide a sign flip.
        ASSERT_EQ(std::bit_cast<uint32_t>(vec.val[p]),
                  std::bit_cast<uint32_t>(other.val[p]))
            << "trial " << trial << " row " << row << " pos " << p;
      }
    }
    EXPECT_EQ(portable_stats.macs, vector_stats.macs);
    EXPECT_EQ(portable_stats.rows_produced, vector_stats.rows_produced);
    EXPECT_EQ(portable_stats.output_nnz, vector_stats.output_nnz);
  }
}

TEST(LayerForward, KernelSelectionReportsName) {
  SetLayerForwardKernel(ForwardKernel::kPortable);
  EXPECT_STREQ(LayerForwardKernelName(), "portable");
  SetLayerForwardKernel(ForwardKernel::kVectorized);
  if (LayerForwardVectorizedAvailable()) {
    EXPECT_STREQ(LayerForwardKernelName(), "avx2");
  } else {
    EXPECT_STREQ(LayerForwardKernelName(), "portable");
  }
  SetLayerForwardKernel(ForwardKernel::kAuto);
}

TEST(LayerForward, EmptyInputYieldsEmptyOutput) {
  const CsrMatrix w = CsrMatrix::FromTriplets(4, 4, {{0, 1, 1.0f}});
  ActivationMap out = ForwardAll(w, ActivationMap{}, -0.1f, 32.0f, 8);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Compute-offload support: the MAC pre-pass and thread-safe scratch.

struct RandomProblem {
  CsrMatrix weights;
  ActivationMap x;
  int32_t batch = 0;

  RowProvider Provider() const {
    return [this](int32_t row) -> const SparseVector* {
      auto it = x.find(row);
      return it == x.end() ? nullptr : &it->second;
    };
  }

  static RandomProblem Make(uint64_t seed, int32_t n, int32_t batch,
                            int nnz_per_row, double density) {
    Rng rng(seed);
    RandomProblem problem;
    problem.batch = batch;
    std::vector<Triplet> triplets;
    for (int32_t i = 0; i < n; ++i) {
      for (int k = 0; k < nnz_per_row; ++k) {
        triplets.push_back(
            {i, static_cast<int32_t>(rng.NextBounded(n)),
             static_cast<float>(rng.NextUniform(-0.5, 1.0))});
      }
    }
    problem.weights = CsrMatrix::FromTriplets(n, n, triplets);
    for (int32_t j = 0; j < n; ++j) {
      SparseVector row;
      row.dim = batch;
      for (int32_t s = 0; s < batch; ++s) {
        if (rng.NextBool(density)) {
          row.idx.push_back(s);
          row.val.push_back(static_cast<float>(rng.NextUniform(0.1, 2.0)));
        }
      }
      if (!row.empty()) problem.x.emplace(j, std::move(row));
    }
    return problem;
  }
};

TEST(CountLayerMacs, MatchesKernelStatsExactly) {
  // The pre-pass prices a kernel's virtual time BEFORE the kernel runs;
  // any divergence from stats.macs would silently skew event times, so
  // the agreement must be bitwise, not approximate.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const RandomProblem problem =
        RandomProblem::Make(seed, 96, 8, 6, 0.25);
    std::vector<int32_t> all_rows, evens;
    for (int32_t i = 0; i < problem.weights.rows(); ++i) {
      all_rows.push_back(i);
      if (i % 2 == 0) evens.push_back(i);
    }
    const RowTable table(problem.x, problem.weights.cols());
    for (const std::vector<int32_t>* rows : {&all_rows, &evens}) {
      const double predicted =
          CountLayerMacs(problem.weights, *rows, table.views);
      LayerForwardStats stats;
      LayerForward(problem.weights, *rows, problem.Provider(), -0.25f, 4.0f,
                   problem.batch, &stats);
      EXPECT_EQ(predicted, stats.macs) << "seed " << seed;
    }
  }
  // Empty subset and empty input both price to zero.
  const RandomProblem problem = RandomProblem::Make(9, 16, 4, 2, 0.5);
  const RowTable table(problem.x, problem.weights.cols());
  EXPECT_EQ(CountLayerMacs(problem.weights, {}, table.views), 0.0);
  EXPECT_EQ(CountLayerMacs(problem.weights, {0, 1},
                           std::vector<RowView>(16)),
            0.0);
}

TEST(LayerForward, ConcurrentCallsMatchSerialByteForByte) {
  // The kernel's tile accumulator and slice panel are thread_local:
  // concurrent calls from a compute pool must neither race nor perturb
  // results. Each thread replays problems a serial pass
  // already solved and demands identical ActivationMaps.
  constexpr int kProblems = 8;
  constexpr int kRepeats = 4;
  std::vector<RandomProblem> problems;
  std::vector<ActivationMap> serial(kProblems);
  std::vector<LayerForwardStats> serial_stats(kProblems);
  for (int i = 0; i < kProblems; ++i) {
    problems.push_back(
        RandomProblem::Make(100 + i, 128, 16, 8, 0.2));
  }
  for (int i = 0; i < kProblems; ++i) {
    serial[i] = ForwardAll(problems[i].weights, problems[i].x, -0.25f, 4.0f,
                           problems[i].batch, &serial_stats[i]);
  }
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kProblems, 0);
  for (int i = 0; i < kProblems; ++i) {
    threads.emplace_back([&, i]() {
      for (int r = 0; r < kRepeats; ++r) {
        LayerForwardStats stats;
        const ActivationMap out =
            ForwardAll(problems[i].weights, problems[i].x, -0.25f, 4.0f,
                       problems[i].batch, &stats);
        if (out != serial[i] || stats.macs != serial_stats[i].macs ||
            stats.output_nnz != serial_stats[i].output_nnz) {
          ++mismatches[i];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kProblems; ++i) {
    EXPECT_EQ(mismatches[i], 0) << "problem " << i;
  }
}

// ---------------------------------------------------------------------------
// Pinned output bytes: FNV-1a digests of LayerForward output (row ids, dims,
// indices, value bits and the three stats) captured from the scatter kernel
// that preceded the lane-tile kernel. Any change to the kernel that moves a
// single output bit, on any entry point or batch width, fails here.

class Fnv1a {
 public:
  void Add(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void AddValue(T value) {
    Add(&value, sizeof(value));
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddOutput(const ActivationMap& out, const LayerForwardStats& stats,
               Fnv1a* fnv) {
  fnv->AddValue(static_cast<uint64_t>(out.size()));
  for (const auto& [row, vec] : out) {
    fnv->AddValue(row);
    fnv->AddValue(vec.dim);
    fnv->AddValue(static_cast<uint64_t>(vec.nnz()));
    fnv->Add(vec.idx.data(), vec.idx.size() * sizeof(int32_t));
    for (float v : vec.val) fnv->AddValue(std::bit_cast<uint32_t>(v));
  }
  fnv->AddValue(std::bit_cast<uint64_t>(stats.macs));
  fnv->AddValue(stats.rows_produced);
  fnv->AddValue(stats.output_nnz);
}

/// A layer built to reach every kernel edge at one batch width: inactive,
/// present-but-empty, contiguous, scattered and high-lanes-only input rows;
/// dyadic weights and inputs (exact sums, so lanes cancel to exactly zero)
/// mixed with rounding ones; and rows whose only two weights cancel.
struct PinnedProblem {
  CsrMatrix weights;
  ActivationMap x;

  const SparseVector* Row(int32_t row) const {
    auto it = x.find(row);
    return it == x.end() ? nullptr : &it->second;
  }

  static PinnedProblem Make(int32_t batch) {
    constexpr int32_t kN = 96;
    Rng rng(0x5EED0000u + static_cast<uint64_t>(batch));
    PinnedProblem problem;
    auto value = [&rng](bool dyadic) {
      if (dyadic) {
        const float mag = static_cast<float>(1 + rng.NextBounded(16)) / 4.0f;
        return rng.NextBool(0.3) ? -mag : mag;
      }
      return static_cast<float>(rng.NextUniform(-1.0, 2.0));
    };
    for (int32_t j = 0; j < kN; ++j) {
      SparseVector row;
      row.dim = batch;
      const bool dyadic = j % 3 != 0;
      switch (j % 5) {
        case 0:  // inactive, or present but empty
          if (j % 10 == 0) problem.x.emplace(j, row);
          continue;
        case 1: {  // one contiguous run
          const int32_t lo = static_cast<int32_t>(rng.NextBounded(batch));
          const int32_t hi =
              lo + 1 + static_cast<int32_t>(rng.NextBounded(batch - lo));
          for (int32_t s = lo; s < hi; ++s) {
            row.idx.push_back(s);
            row.val.push_back(value(dyadic));
          }
          break;
        }
        case 2:  // lanes from 64 up only, when the batch has them
          for (int32_t s = std::min(batch - 1, 64); s < batch; ++s) {
            if (rng.NextBool(0.4)) {
              row.idx.push_back(s);
              row.val.push_back(value(dyadic));
            }
          }
          break;
        default:  // scattered
          for (int32_t s = 0; s < batch; ++s) {
            if (rng.NextBool(0.3)) {
              row.idx.push_back(s);
              row.val.push_back(value(dyadic));
            }
          }
          break;
      }
      if (!row.empty()) problem.x.emplace(j, std::move(row));
    }
    // Columns 1 and 6 of every block of ten share their input row, so a
    // row weighting one by +c and the other by -c cancels to exactly zero.
    for (int32_t j = 1; j + 5 < kN; j += 10) {
      SparseVector twin = problem.x.at(j);
      problem.x[j + 5] = std::move(twin);
    }
    std::vector<Triplet> triplets;
    for (int32_t i = 0; i < kN; ++i) {
      if (i % 6 == 0) {
        const int32_t col = 1 + 10 * static_cast<int32_t>(rng.NextBounded(9));
        const float c = value(i % 12 == 0);
        triplets.push_back({i, col, c});
        triplets.push_back({i, col + 5, -c});
        continue;
      }
      const bool dyadic = i % 2 == 0;
      const int nnz = 1 + static_cast<int>(rng.NextBounded(16));
      for (int k = 0; k < nnz; ++k) {
        triplets.push_back({i, static_cast<int32_t>(rng.NextBounded(kN)),
                            value(dyadic)});
      }
    }
    problem.weights = CsrMatrix::FromTriplets(kN, kN, std::move(triplets));
    return problem;
  }
};

/// Digest of one batch width over every entry point and both activation
/// modes: capped ReLU, and relu_cap = 0 with a negative bias, where a
/// touched lane whose sum is exactly zero is emitted as the bias.
uint64_t PinnedDigest(int32_t batch) {
  const PinnedProblem problem = PinnedProblem::Make(batch);
  const RowProvider provider = [&problem](int32_t row) {
    return problem.Row(row);
  };
  std::vector<int32_t> rows;
  for (int32_t i = 0; i < problem.weights.rows(); ++i) {
    if (i % 3 != 1) rows.push_back(i);
  }
  const RowTable table(problem.x, problem.weights.cols());
  Fnv1a fnv;
  for (const auto& [bias, cap] : {std::pair{-0.25f, 4.0f},
                                  std::pair{-0.5f, 0.0f}}) {
    LayerForwardStats stats;
    const ActivationMap all =
        ForwardAll(problem.weights, problem.x, bias, cap, batch, &stats);
    AddOutput(all, stats, &fnv);
    if (cap == 0.0f) {
      // The cancelling rows must reach the kernel: some touched lane sums
      // to exactly zero and is emitted as the bias alone.
      bool bias_only = false;
      for (const auto& [row, vec] : all) {
        for (float v : vec.val) bias_only = bias_only || v == bias;
      }
      EXPECT_TRUE(bias_only) << "batch " << batch;
    }
    const ActivationMap subset = LayerForward(problem.weights, rows, provider,
                                              bias, cap, batch, &stats);
    AddOutput(subset, stats, &fnv);
    EXPECT_EQ(CountLayerMacs(problem.weights, rows, table.views), stats.macs);
    LayerForwardStats flat_stats;
    ActivationRows flat;
    LayerForward(problem.weights, rows, table.views, bias, cap, batch, &flat,
                 &flat_stats);
    const ActivationMap from_flat = flat.ToMap();
    EXPECT_EQ(from_flat, subset);
    AddOutput(from_flat, flat_stats, &fnv);
  }
  return fnv.hash();
}

TEST(LayerForward, OutputBytesMatchPinnedDigests) {
  const std::vector<std::pair<int32_t, uint64_t>> pinned = {
      {1, 0x3a967c6835cb6863ull},   {7, 0x380e2dd6a1842123ull},
      {8, 0x9b0868339f223b48ull},   {9, 0x894ae6b0c3122e7dull},
      {16, 0xd16758c8765539d2ull},  {63, 0xb730e8c2ccae74cfull},
      {64, 0x9270b2ce1abf1f72ull},  {65, 0x7159e40a525483ccull},
      {200, 0x45e7fb8b79b28a20ull},
  };
  for (const ForwardKernel kernel :
       {ForwardKernel::kPortable, ForwardKernel::kVectorized}) {
    SetLayerForwardKernel(kernel);
    for (const auto& [batch, digest] : pinned) {
      const uint64_t got = PinnedDigest(batch);
      EXPECT_EQ(got, digest) << "kernel " << LayerForwardKernelName()
                             << " batch " << batch << " digest 0x"
                             << std::hex << got;
    }
  }
  SetLayerForwardKernel(ForwardKernel::kAuto);
}

}  // namespace
}  // namespace fsd::linalg
