// FsdRuntime: the request/report types of the FSD-Inference library, its
// one-query entry point RunInference, and the per-run building blocks the
// serving runtime (serving.h) launches every query with: provisioning
// communication resources (offline), the coordinator body, and collecting
// latency / metrics / billing into an InferenceReport.
#ifndef FSD_CORE_RUNTIME_H_
#define FSD_CORE_RUNTIME_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "core/cost_model.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "core/worker.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"

namespace fsd::core {

struct InferenceRequest {
  const model::SparseDnn* dnn = nullptr;
  const part::ModelPartition* partition = nullptr;
  /// One or more pre-buffered batches (the paper assumes batching upstream).
  std::vector<const linalg::ActivationMap*> batches;
  FsdOptions options;
};

/// Per-dimension billing delta attributable to one run.
struct BillingDelta {
  double faas_cost = 0.0;
  double comm_cost = 0.0;
  double total_cost = 0.0;
  double quantities[static_cast<int>(
      cloud::BillingDimension::kDimensionCount)] = {0};

  double quantity(cloud::BillingDimension dim) const {
    return quantities[static_cast<int>(dim)];
  }
};

/// A query's outputs, one ActivationMap per batch, as one immutable buffer
/// that every copy of the report shares: copying a report costs a
/// reference count, not the maps. Nothing writes through it once built;
/// clear() drops only this copy's reference.
class QueryOutputs {
 public:
  using Maps = std::vector<linalg::ActivationMap>;
  using value_type = linalg::ActivationMap;
  using const_iterator = Maps::const_iterator;

  QueryOutputs() = default;
  explicit QueryOutputs(Maps maps)
      : maps_(std::make_shared<const Maps>(std::move(maps))) {}

  /// The shared maps; an empty list when there are none.
  const Maps& maps() const;
  size_t size() const { return maps().size(); }
  bool empty() const { return maps().empty(); }
  const linalg::ActivationMap& operator[](size_t i) const {
    return maps()[i];
  }
  const_iterator begin() const { return maps().begin(); }
  const_iterator end() const { return maps().end(); }
  void clear() { maps_.reset(); }

  /// Compares contents, not buffers.
  friend bool operator==(const QueryOutputs& a, const QueryOutputs& b) {
    return a.maps() == b.maps();
  }

 private:
  std::shared_ptr<const Maps> maps_;
};

struct InferenceReport {
  Status status;
  /// End-to-end query latency: request submission -> root returns x^L.
  double latency_s = 0.0;
  /// When the last worker of the tree had started (launch ablation metric).
  double launch_complete_s = 0.0;
  int32_t total_samples = 0;
  double per_sample_ms = 0.0;
  QueryOutputs outputs;  ///< one per batch, shared by every copy
  RunMetrics metrics;
  BillingDelta billing;            ///< "actual" charges for this run
  CostBreakdown predicted;         ///< cost-model prediction from metrics
  int32_t worker_memory_mb = 0;
};

/// Runs one inference request against `cloud` and drives the simulation to
/// completion: a one-query ServingRuntime, submitted at the current virtual
/// time. Malformed requests fail the call; execution, provisioning and
/// coordinator-invoke failures land in the report's `status`. `billing` is
/// the run's ledger delta. Reentrant across runs on the same CloudEnv (each
/// call registers its own uniquely named functions, so every run starts
/// cold).
Result<InferenceReport> RunInference(cloud::CloudEnv* cloud,
                                     const InferenceRequest& request);

/// ---- building blocks of the serving runtime's run lifecycle ----
/// (serving.h runs every request, as overlapping processes in one
/// Simulation.)

/// Allocates a process-unique id. Query, run and pre-warm task ids all
/// draw from this one counter, so resource names never collide on a shared
/// CloudEnv, not even across ServingRuntime instances.
uint64_t AllocateRunId();

/// The effective partition-cache family PrepareRunState stamps into
/// RunState::cache_family: the request's model_family (or a fingerprint of
/// the generator config) qualified with the partition-layout fingerprint.
/// Empty when the request's options disable caching. Exposed because the
/// serving runtime's pre-warm path must name the family BEFORE any run of
/// it exists.
std::string DeriveCacheFamily(const InferenceRequest& request);

/// Request validation alone (model/partition/batch shape checks), without
/// provisioning anything. The serving runtime validates at Submit() but
/// defers PrepareRunState until the query's run launches, so callers still
/// get synchronous errors for malformed requests.
Status ValidateInferenceRequest(const InferenceRequest& request);

/// Sample columns across a validated request's batches (a batch's width is
/// its first row's SparseVector dim). The batching size-cap currency and
/// the per-member cost-attribution denominator — one definition so the two
/// can never diverge.
int32_t RequestSampleCols(const InferenceRequest& request);

/// Validates `request`, applies option defaults (worker memory), provisions
/// the channel resources named by `options.channel_scope`, and builds the
/// per-run shared state. Does NOT register FaaS functions: ServingRuntime
/// registers shared dispatchers (one warm pool across queries) and must set
/// `RunState::worker_function` before the coordinator executes.
Result<std::unique_ptr<RunState>> PrepareRunState(
    cloud::CloudEnv* cloud, const InferenceRequest& request, uint64_t run_id);

/// Coordinator handler body (paper §VI-A1): parses the request and invokes
/// the first level of the worker tree. Fires the run's done-signal on
/// failure or when the run was aborted before it started.
void RunCoordinator(cloud::FaasContext* ctx, RunState* state);

/// Assembles one member query's report (latency, outputs, metrics,
/// cost-model prediction) once the run's done-signal has fired; `t0`/`t1`
/// are the member's submission and the run's completion virtual times.
/// Moves the member's slice of the outputs out of the state into the
/// report's shared QueryOutputs; metrics are
/// sliced by attribution, not consumed:
///  - per-layer counters (communication, compute) are attributed exactly —
///    each batch's phases belong to exactly one member;
///  - tree-level costs every member shares (worker durations, model-share
///    reads, cache counters, launch time) are split by batch share
///    (member cols / total cols), with integer counters apportioned by
///    cumulative rounding so member slices always sum exactly to the run's
///    totals (workload-level predictions must reconcile with the ledger);
///  - cold starts are attributed to the first member (they happened once).
/// The sliced RunMetrics carries the member's share in `tree_share` so
/// PredictFromMetrics bills the member its fraction of the P worker
/// invocations. Billing is the caller's concern: under concurrent runs
/// only workload-level ledger diffs are meaningful.
InferenceReport CollectMemberReport(RunState* state, size_t member_index,
                                    double t0, double t1);

/// Ledger snapshot/diff used to attribute "actual" charges to an interval.
std::vector<cloud::BillingLine> SnapshotLedger(
    const cloud::BillingLedger& ledger);
BillingDelta DiffLedger(const std::vector<cloud::BillingLine>& before,
                        const cloud::BillingLedger& after);

}  // namespace fsd::core

#endif  // FSD_CORE_RUNTIME_H_
