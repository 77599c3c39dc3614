// CSR sparse matrices.
//
// CsrMatrix stores a full matrix (used for model weights and reference
// activations); a worker's partition is a list of its row ids, which the
// kernel reads straight from the full matrix.
#ifndef FSD_LINALG_CSR_H_
#define FSD_LINALG_CSR_H_

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace fsd::linalg {

/// COO triplet used when assembling matrices.
struct Triplet {
  int32_t row;
  int32_t col;
  float value;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(int32_t rows, int32_t cols) : rows_(rows), cols_(cols) {
    row_ptr_.assign(static_cast<size_t>(rows) + 1, 0);
  }

  /// Builds from triplets (duplicates summed, rows/cols validated).
  static CsrMatrix FromTriplets(int32_t rows, int32_t cols,
                                std::vector<Triplet> triplets);

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(col_idx_.size()); }

  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

  int64_t RowNnz(int32_t row) const {
    return row_ptr_[row + 1] - row_ptr_[row];
  }

  /// Iterates a row's entries: fn(col, value).
  template <typename Fn>
  void ForEachInRow(int32_t row, Fn fn) const {
    for (int64_t p = row_ptr_[row]; p < row_ptr_[row + 1]; ++p) {
      fn(col_idx_[p], values_[p]);
    }
  }

  /// Dense materialization (tests only; O(rows*cols)).
  std::vector<float> ToDense() const;

 private:
  int32_t rows_ = 0;
  int32_t cols_ = 0;
  std::vector<int64_t> row_ptr_;
  std::vector<int32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace fsd::linalg

#endif  // FSD_LINALG_CSR_H_
