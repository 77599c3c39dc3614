// Multilevel hypergraph partitioner (the repository's from-scratch PaToH
// substitute) plus the simple baselines the paper compares against.
//
// Pipeline per bisection: heavy-connectivity coarsening -> greedy growth
// initial partition (best of several seeded restarts) -> FM boundary
// refinement at every level of the hierarchy. K-way partitions are produced
// by recursive bisection with proportional weight targets.
#ifndef FSD_PART_PARTITIONER_H_
#define FSD_PART_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "part/hypergraph.h"

namespace fsd::part {

struct PartitionerOptions {
  /// Allowed imbalance: max part weight <= (1 + epsilon) * ideal.
  double epsilon = 0.10;
  /// Stop coarsening below this many vertices.
  int32_t coarsen_to = 160;
  /// Maximum coarsening levels (safety bound).
  int32_t max_levels = 24;
  /// Greedy-growth restarts for the initial bisection.
  int32_t initial_restarts = 4;
  /// FM passes per level.
  int32_t fm_passes = 4;
  uint64_t seed = 99;
};

/// Scheme names follow the paper: HGP-DNN (hypergraph), RP (random),
/// plus contiguous block partitioning as an additional baseline.
enum class PartitionScheme { kHypergraph, kRandom, kBlock };

std::string_view PartitionSchemeName(PartitionScheme scheme);

/// Result of partitioning: assignment[v] in [0, num_parts).
struct PartitionResult {
  std::vector<int32_t> assignment;
  int32_t num_parts = 0;
  int64_t cut_cost = 0;        ///< connectivity-1 objective
  double imbalance = 0.0;      ///< max part weight / ideal - 1
};

/// Partitions `hg` into `num_parts` using the multilevel algorithm. Every
/// part receives at least one vertex (num_parts <= vertices is required).
Result<PartitionResult> PartitionHypergraph(const Hypergraph& hg,
                                            int32_t num_parts,
                                            const PartitionerOptions& options);

/// Random assignment baseline (the paper's RP), weight-balanced by
/// round-robin over a shuffled vertex order.
PartitionResult PartitionRandom(const Hypergraph& hg, int32_t num_parts,
                                uint64_t seed);

/// Contiguous block baseline: vertices [0,N) split into equal-weight runs.
PartitionResult PartitionBlock(const Hypergraph& hg, int32_t num_parts);

}  // namespace fsd::part

#endif  // FSD_PART_PARTITIONER_H_
