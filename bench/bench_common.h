// Shared scaffolding for the experiment harnesses (one binary per paper
// table/figure). Handles workload construction, partition caching, scale
// configuration and table printing.
//
// Scale: the paper runs L=120-layer networks on 10,000-sample batches on
// real AWS hardware. Virtual-time results are hardware-independent, but the
// real sparse kernels behind them are CPU-bound, so the default "quick"
// scale trims depth/batch (documented per bench and in bench/README.md's
// "FSD_BENCH_SCALE tiers" section). Not every relationship the paper reports
// holds at that scale; ROADMAP.md lists the ones that fail. Set
// FSD_BENCH_SCALE=paper for full-depth runs.
#ifndef FSD_BENCH_BENCH_COMMON_H_
#define FSD_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/hspff.h"
#include "baselines/sage.h"
#include "baselines/server.h"
#include "cloud/cloud.h"
#include "core/runtime.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::bench {

struct ScaleConfig {
  bool paper_scale = false;
  /// FSD_BENCH_SCALE=tiny: the CTest smoke configuration. Every bench
  /// binary runs its full code path in seconds so benches cannot bit-rot
  /// silently; magnitudes are meaningless at this scale, shapes are not
  /// asserted.
  bool tiny = false;
  /// Layer count for a given model width. Both compute and communication
  /// scale linearly in L, so per-sample ratios and crossovers are
  /// L-invariant; the default trims depth for single-core wall clock.
  int32_t LayersFor(int32_t neurons) const {
    if (paper_scale) return 120;
    if (tiny) return 4;
    return neurons >= 65536 ? 8 : 16;
  }
  /// Batch size (samples per inference query). N=16384 keeps a batch large
  /// enough that per-layer communication amortizes as in the paper's
  /// 10,000-sample batches (otherwise the parallel-vs-serial crossover of
  /// Table II would be hidden); smaller widths shrink further since their
  /// shapes ("fewer workers win") are batch-robust.
  int32_t BatchFor(int32_t neurons) const {
    if (paper_scale) return 2048;  // still below 10k; see bench/README.md
    if (tiny) return 32;
    if (neurons >= 65536) return 192;
    if (neurons >= 16384) return 768;
    return 256;
  }
  /// Model widths included in sweeps.
  std::vector<int32_t> NeuronCounts() const {
    if (tiny) return {1024};
    return {1024, 4096, 16384, 65536};
  }
  /// Worker counts (the paper's P values).
  std::vector<int32_t> WorkerCounts() const {
    if (tiny) return {4, 8};
    return {8, 20, 42, 62};
  }
  /// Two P points bracketing the parallel optimum for quick sweeps.
  std::vector<int32_t> RepresentativeWorkers() const {
    if (tiny) return {4, 8};
    return {20, 62};
  }
  /// Clamp a bench's fixed model width / worker count to the smoke scale.
  int32_t NeuronsOr(int32_t neurons) const { return tiny ? 1024 : neurons; }
  int32_t WorkersOr(int32_t workers) const {
    return tiny && workers > 8 ? 8 : workers;
  }

  static ScaleConfig FromEnv();
};

/// A fully-prepared workload: model, input batch, reference ground truth.
struct Workload {
  model::SparseDnn dnn;
  linalg::ActivationMap input;
  linalg::ActivationMap expected;
  model::ReferenceStats stats;
  int32_t batch = 0;
};

/// Builds (and memoizes per process) the workload for a model width. The
/// reference activations/stats are additionally cached on disk (under
/// $FSD_BENCH_CACHE, default "fsd_bench_cache/") so the bench binaries do
/// not recompute multi-second ground truths.
const Workload& GetWorkload(int32_t neurons, const ScaleConfig& scale);

/// Optional batch override for benches that need a different amortization
/// point (e.g. Table III's random-partitioning run). Must be called before
/// the first GetWorkload() for that width.
void OverrideBatch(int32_t neurons, int32_t batch);

/// The partitioning options the benches use for a model of `neurons` rows.
part::ModelPartitionOptions BenchPartitionOptions(int32_t neurons,
                                                  part::PartitionScheme scheme);

/// Builds (and memoizes, including on disk) a partition for
/// (neurons, P, scheme) with BenchPartitionOptions.
const part::ModelPartition& GetPartition(int32_t neurons, int32_t workers,
                                         part::PartitionScheme scheme,
                                         const ScaleConfig& scale);

/// Runs one FSD-Inference query on a fresh cloud; verifies the output
/// matches the serial reference (aborting loudly on mismatch).
core::InferenceReport RunFsd(const Workload& workload,
                             const part::ModelPartition& partition,
                             core::FsdOptions options,
                             bool verify_output = true);

/// Sweeps worker counts for a variant and returns (P -> report).
std::map<int32_t, core::InferenceReport> SweepWorkers(
    int32_t neurons, core::Variant variant, const ScaleConfig& scale,
    const std::vector<int32_t>& worker_counts);

/// Serialized model size at PAPER dimensions (L=120), used for feasibility
/// gates: bench-scale models are layer-reduced, but whether FSD-Inf-Serial
/// or Sage-SL-Inf can hold a model family at all is a paper-scale question.
uint64_t PaperScaleModelBytes(int32_t neurons);

/// Whether the paper-scale workload (120 layers, 10k-sample batches) fits a
/// single 10240 MB FaaS instance (the FSD-Inf-Serial feasibility gate; the
/// paper reports N=65536 failing it).
bool SerialFitsPaperScale(int32_t neurons);

/// ---- machine-readable results ----

/// When the env var FSD_BENCH_JSON names a directory, writes
/// `<dir>/BENCH_<bench_name>.json` with the bench's headline numbers
/// (typically p50/p95 latency, throughput, daily cost) plus the scale tier
/// it ran at, so CI can archive the perf trajectory per commit. No-op when
/// the env var is unset. Non-finite values are emitted as null.
void WriteBenchJson(
    const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics);

/// ---- table formatting ----

void PrintHeader(const std::string& title, const std::string& subtitle);
void PrintRule();

/// "paper reports X, we measured Y" annotation helper.
std::string PaperNote(const std::string& note);

}  // namespace fsd::bench

#endif  // FSD_BENCH_BENCH_COMMON_H_
