#include "model/reference.h"

namespace fsd::model {

Result<linalg::ActivationMap> ReferenceInference(
    const SparseDnn& dnn, const linalg::ActivationMap& input,
    ReferenceStats* stats,
    const std::function<void(int32_t, const linalg::ActivationMap&)>&
        per_layer) {
  if (input.empty()) {
    return Status::InvalidArgument("input batch has no active neurons");
  }
  int32_t batch = input.begin()->second.dim;
  if (batch <= 0) return Status::InvalidArgument("batch width must be > 0");

  // The layers run on the flat kernel core; the map is only the edge, so
  // a `per_layer` observer costs one conversion per layer.
  linalg::ActivationRows x = linalg::ActivationRows::FromMap(input);
  linalg::ActivationRows next;
  std::vector<linalg::RowView> table;
  if (stats != nullptr) *stats = ReferenceStats{};
  for (int32_t k = 0; k < dnn.layers(); ++k) {
    table.assign(static_cast<size_t>(dnn.weights[k].cols()),
                 linalg::RowView{});
    x.ViewInto(table);
    linalg::LayerForwardStats layer_stats;
    linalg::LayerForwardAll(dnn.weights[k], table, dnn.config.bias,
                            dnn.config.relu_cap, batch, &next, &layer_stats);
    if (stats != nullptr) {
      stats->total_macs += layer_stats.macs;
      stats->total_flops += linalg::LayerFlops(layer_stats);
      stats->rows_per_layer.push_back(layer_stats.rows_produced);
      stats->nnz_per_layer.push_back(layer_stats.output_nnz);
    }
    std::swap(x, next);
    if (per_layer) per_layer(k, x.ToMap());
    if (x.empty()) break;  // network died out; remaining layers are zero
  }
  return x.ToMap();
}

std::vector<double> SampleScores(const linalg::ActivationMap& final_layer,
                                 int32_t batch) {
  std::vector<double> scores(static_cast<size_t>(batch), 0.0);
  for (const auto& [row, vec] : final_layer) {
    for (size_t j = 0; j < vec.idx.size(); ++j) {
      scores[vec.idx[j]] += vec.val[j];
    }
  }
  return scores;
}

}  // namespace fsd::model
