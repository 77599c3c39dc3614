#include "linalg/activation_rows.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "common/check.h"

namespace fsd::linalg {

size_t ActivationRows::Find(int32_t id) const {
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  return it != ids.end() && *it == id ? static_cast<size_t>(it - ids.begin())
                                      : ids.size();
}

void ActivationRows::ViewInto(std::span<RowView> table) const {
  for (size_t r = 0; r < size(); ++r) {
    if (ids[r] >= 0 && static_cast<size_t>(ids[r]) < table.size()) {
      table[ids[r]] = row(r);
    }
  }
}

void ActivationRows::clear() {
  ids.clear();
  dims.clear();
  offsets.clear();
  idx.clear();
  val.clear();
}

void ActivationRows::Truncate(size_t rows) {
  if (rows >= size()) return;
  if (rows == 0) {
    clear();
    return;
  }
  const size_t entries = static_cast<size_t>(offsets[rows]);
  ids.resize(rows);
  dims.resize(rows);
  offsets.resize(rows + 1);
  idx.resize(entries);
  val.resize(entries);
}

void ActivationRows::Append(int32_t id, int32_t dim, const int32_t* row_idx,
                            const float* row_val, size_t n) {
  FSD_CHECK(ids.empty() || ids.back() < id);
  if (offsets.empty()) offsets.push_back(0);
  ids.push_back(id);
  dims.push_back(dim);
  idx.insert(idx.end(), row_idx, row_idx + n);
  val.insert(val.end(), row_val, row_val + n);
  offsets.push_back(static_cast<int64_t>(idx.size()));
}

void ActivationRows::SortKeepingLatest() {
  std::vector<size_t> order(size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](size_t a, size_t b) { return ids[a] < ids[b]; });
  ActivationRows sorted;
  for (size_t k = 0; k < order.size(); ++k) {
    // Of an equal-id run, stable order puts the last appended row last.
    if (k + 1 < order.size() && ids[order[k + 1]] == ids[order[k]]) continue;
    sorted.Append(ids[order[k]], row(order[k]));
  }
  *this = std::move(sorted);
}

ActivationRows ActivationRows::FromMap(const ActivationMap& map) {
  ActivationRows rows;
  rows.ids.reserve(map.size());
  rows.dims.reserve(map.size());
  rows.offsets.reserve(map.size() + 1);
  for (const auto& [id, vec] : map) rows.Append(id, RowView::Of(vec));
  return rows;
}

ActivationMap ActivationRows::ToMap() const {
  ActivationMap map;
  MergeInto(&map);
  return map;
}

void ActivationRows::MergeInto(ActivationMap* map) const {
  auto hint = map->begin();
  for (size_t r = 0; r < size(); ++r) {
    const RowView view = row(r);
    SparseVector vec;
    vec.dim = view.dim;
    vec.idx.assign(view.idx, view.idx + view.nnz);
    vec.val.assign(view.val, view.val + view.nnz);
    // Ids ascend: the next row belongs at or after the one just placed.
    hint = std::next(map->insert_or_assign(hint, ids[r], std::move(vec)));
  }
}

ActivationRows MergeRows(std::span<const ActivationRows* const> parts) {
  struct Ref {
    int32_t id;
    size_t part;
    size_t row;
  };
  std::vector<Ref> refs;
  for (size_t p = 0; p < parts.size(); ++p) {
    for (size_t r = 0; r < parts[p]->size(); ++r) {
      refs.push_back({parts[p]->ids[r], p, r});
    }
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) { return a.id < b.id; });
  ActivationRows merged;
  for (size_t k = 0; k < refs.size(); ++k) {
    if (k + 1 < refs.size() && refs[k + 1].id == refs[k].id) continue;
    merged.Append(refs[k].id, parts[refs[k].part]->row(refs[k].row));
  }
  return merged;
}

}  // namespace fsd::linalg
