#include "linalg/csr.h"

#include <algorithm>
#include <numeric>

namespace fsd::linalg {

CsrMatrix CsrMatrix::FromTriplets(int32_t rows, int32_t cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    FSD_CHECK(t.row >= 0 && t.row < rows);
    FSD_CHECK(t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  CsrMatrix m(rows, cols);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    float sum = 0.0f;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (sum != 0.0f) {
      m.col_idx_.push_back(triplets[i].col);
      m.values_.push_back(sum);
      ++m.row_ptr_[triplets[i].row + 1];
    }
    i = j;
  }
  std::partial_sum(m.row_ptr_.begin(), m.row_ptr_.end(), m.row_ptr_.begin());
  return m;
}

std::vector<float> CsrMatrix::ToDense() const {
  std::vector<float> dense(static_cast<size_t>(rows_) * cols_, 0.0f);
  for (int32_t r = 0; r < rows_; ++r) {
    ForEachInRow(r, [&](int32_t c, float v) {
      dense[static_cast<size_t>(r) * cols_ + c] = v;
    });
  }
  return dense;
}

}  // namespace fsd::linalg
