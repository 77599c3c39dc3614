// SparseVector: index-sorted sparse vector over a fixed-width dense space.
//
// In FSD-Inference a SparseVector holds one neuron-row of the activation
// matrix across the inference batch: `idx` are sample positions, `val` the
// activation values. It is the row type of ActivationMap, the edge form of
// a layer's rows; the worker's per-layer path keeps rows flat in
// ActivationRows (activation_rows.h).
#ifndef FSD_LINALG_SPARSE_VECTOR_H_
#define FSD_LINALG_SPARSE_VECTOR_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace fsd::linalg {

struct SparseVector {
  int32_t dim = 0;                ///< dense width (batch size)
  std::vector<int32_t> idx;       ///< strictly increasing positions
  std::vector<float> val;         ///< matching values (nonzero)

  size_t nnz() const { return idx.size(); }
  bool empty() const { return idx.empty(); }

  /// y[idx[j]] += scale * val[j] over a dense accumulator of width dim.
  void AxpyInto(float scale, float* dense) const {
    for (size_t j = 0; j < idx.size(); ++j) {
      dense[idx[j]] += scale * val[j];
    }
  }

  /// Builds from a dense buffer keeping entries with |v| > 0.
  static SparseVector FromDense(const float* dense, int32_t dim) {
    SparseVector out;
    out.dim = dim;
    for (int32_t i = 0; i < dim; ++i) {
      if (dense[i] != 0.0f) {
        out.idx.push_back(i);
        out.val.push_back(dense[i]);
      }
    }
    return out;
  }

  bool operator==(const SparseVector& other) const {
    return dim == other.dim && idx == other.idx && val == other.val;
  }
};

}  // namespace fsd::linalg

#endif  // FSD_LINALG_SPARSE_VECTOR_H_
