// Activation rows of one layer, in the two forms the system uses.
//
// ActivationRows is the worker's per-layer container: every row of a layer
// in one flat, id-sorted CSR layout, so the kernel's output, the send
// planner, the wire decoder and the row table move whole buffers instead
// of one heap-allocated SparseVector per row. ActivationMap (row id ->
// SparseVector) stays at the request and response edge: request inputs,
// query outputs and the serial reference, each of which converts once.
#ifndef FSD_LINALG_ACTIVATION_ROWS_H_
#define FSD_LINALG_ACTIVATION_ROWS_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "linalg/sparse_vector.h"

namespace fsd::linalg {

/// Activations of one layer: neuron-row id -> sparse row over the batch.
/// Ordered map for deterministic iteration (payload bytes must be stable).
using ActivationMap = std::map<int32_t, SparseVector>;

/// A read-only view of one activation row: `nnz` entries at `idx`/`val`
/// (positions strictly increasing, below `dim`). A default view is an
/// inactive row.
struct RowView {
  const int32_t* idx = nullptr;
  const float* val = nullptr;
  int32_t nnz = 0;
  int32_t dim = 0;

  bool empty() const { return nnz == 0; }

  static RowView Of(const SparseVector& row) {
    return {row.idx.data(), row.val.data(), static_cast<int32_t>(row.nnz()),
            row.dim};
  }
};

/// The rows of one layer in CSR form: row r has id `ids[r]`, dense width
/// `dims[r]` and the entries [offsets[r], offsets[r + 1]) of `idx`/`val`.
/// Ids are strictly increasing. `offsets` is empty while there are no rows
/// and has size() + 1 entries (offsets[0] = 0) otherwise. Rows may be
/// empty (a decoded row with no entries), exactly as a map entry may.
struct ActivationRows {
  std::vector<int32_t> ids;
  std::vector<int32_t> dims;
  std::vector<int64_t> offsets;
  std::vector<int32_t> idx;
  std::vector<float> val;

  size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }
  int64_t nnz() const { return static_cast<int64_t>(idx.size()); }

  RowView row(size_t r) const {
    const int64_t begin = offsets[r];
    return {idx.data() + begin, val.data() + begin,
            static_cast<int32_t>(offsets[r + 1] - begin), dims[r]};
  }

  /// Index of row `id`, or size() when absent (binary search).
  size_t Find(int32_t id) const;

  /// Points table[id] at each row whose id indexes `table` (a kernel row
  /// table, one slot per weight column); other rows are skipped.
  void ViewInto(std::span<RowView> table) const;

  /// Empties the container, keeping its buffers for reuse.
  void clear();
  /// Keeps the first `rows` rows.
  void Truncate(size_t rows);

  /// Appends a row; `id` must exceed every id already held.
  void Append(int32_t id, int32_t dim, const int32_t* row_idx,
              const float* row_val, size_t n);
  void Append(int32_t id, const RowView& row) {
    Append(id, row.dim, row.idx, row.val, static_cast<size_t>(row.nnz));
  }

  /// Restores the id order after rows were appended out of order or with
  /// repeated ids (a decoder fed hostile or re-sent chunks): rows are
  /// sorted by id and, of rows sharing an id, the last appended is kept,
  /// as repeated assignments into an ActivationMap would leave it.
  void SortKeepingLatest();

  static ActivationRows FromMap(const ActivationMap& map);
  ActivationMap ToMap() const;
  /// Assigns every row into `map`, replacing rows already there.
  void MergeInto(ActivationMap* map) const;

  bool operator==(const ActivationRows& other) const = default;
};

/// The union of `parts`' rows; a later part wins a repeated id.
ActivationRows MergeRows(std::span<const ActivationRows* const> parts);

}  // namespace fsd::linalg

#endif  // FSD_LINALG_ACTIVATION_ROWS_H_
