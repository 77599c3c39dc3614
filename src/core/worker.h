// The FSI (Fully Serverless Inference) worker — Algorithms 1 & 2 of the
// paper, parameterized by the communication channel.
#ifndef FSD_CORE_WORKER_H_
#define FSD_CORE_WORKER_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "core/channel.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "linalg/spmm.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"

namespace fsd::core {

class PartitionCache;
class ShareDistributor;

/// Shared state of one inference run (owned by the runtime; read-mostly from
/// workers; the root writes outputs and fires `done`).
struct RunState {
  /// Uniques this run within the cloud: channel scopes and worker payloads
  /// carry it so shared (warm-pool-reusing) functions can dispatch among
  /// concurrently executing runs.
  uint64_t run_id = 0;
  const model::SparseDnn* dnn = nullptr;
  const part::ModelPartition* partition = nullptr;
  /// One activation map per inference batch (successive batches reuse the
  /// worker tree, as in the paper). Under cross-query batching this is the
  /// concatenation of several queries' batch lists; `members` records which
  /// contiguous slice belongs to which query.
  std::vector<const linalg::ActivationMap*> batches;

  /// One query served by this run. A plain run has exactly one member
  /// spanning every batch; a batched serving run has one member per
  /// coalesced query, each owning the contiguous slice
  /// [batch_begin, batch_begin + batch_count) of `batches`/`outputs`.
  /// Workers never look at members — the FSI loop is per batch — only
  /// report collection does, to slice outputs and attribute metrics.
  struct Member {
    uint64_t query_id = 0;
    int32_t batch_begin = 0;
    int32_t batch_count = 0;
    int32_t cols = 0;  ///< sample columns across the member's batches
  };
  std::vector<Member> members;

  /// Sum of members' cols (the attribution denominator).
  int64_t TotalCols() const {
    int64_t total = 0;
    for (const Member& m : members) total += m.cols;
    return total;
  }
  FsdOptions options;
  cloud::CloudEnv* cloud = nullptr;

  /// Name of the registered worker function (unique per run).
  std::string worker_function;

  /// Effective partition-cache family for this run: options.model_family
  /// (or an identity derived from the generator config) qualified with a
  /// fingerprint of the partition's row-ownership layout, so shares under
  /// a different partitioning — another P, or another scheme at the same
  /// P — can never alias. Set by PrepareRunState; empty disables caching
  /// for the run.
  std::string cache_family;

  /// Serving-runtime-owned peer share distributor (λScale-style fast
  /// scaling). When set and the instance cache misses, LoadShareOnMiss asks
  /// it for the share before paying the object-storage read; null
  /// (ServingOptions::peer_share_transfer off) keeps the storage-only cold
  /// path.
  ShareDistributor* share_distributor = nullptr;

  /// --- outputs ---
  std::vector<linalg::ActivationMap> outputs;  // per batch, written by root
  std::shared_ptr<sim::SimSignal> done;        // fired by root
  RunMetrics metrics;                          // slot per worker
  std::vector<Status> worker_status;
  double launch_complete_s = 0.0;  ///< latest worker start time (virtual)
  bool abort = false;              ///< any worker failed; drain quickly

  /// --- quiescence tracking ---
  /// `done` fires when the ROOT finishes, but siblings (or workers still in
  /// their start delay), and even the coordinator mid-launch-loop, may
  /// outlive the root. Concurrent serving must not collect (and move out
  /// of) this state until nothing can touch it anymore; `quiesced` fires at
  /// that point. Mutated only inside the simulation (single-threaded by
  /// construction).
  int32_t workers_launched = 0;    ///< successful worker InvokeAsync calls
  int32_t workers_completed = 0;   ///< worker handlers that returned
  int32_t coordinators_active = 0; ///< coordinator handlers in flight
  std::shared_ptr<sim::SimSignal> quiesced;

  /// Fires `quiesced` once the run is finished, no launched worker is
  /// still in flight, and no coordinator could launch more. Called after
  /// every worker and coordinator exit.
  void MaybeQuiesce() {
    if (done->fired() && coordinators_active == 0 &&
        workers_completed == workers_launched) {
      quiesced->Fire();
    }
  }

  /// Phases per batch: L layer phases plus one PhaseBlock per collective
  /// op, each CollectiveRounds(topology, P) wide (through-root keeps the
  /// legacy L + 4 layout). Must match the PhaseAllocator built in RunBatch.
  int32_t PhasesPerBatch() const {
    return PhaseAllocator(0, dnn->layers(),
                          CollectiveRounds(options.collective_topology,
                                           options.num_workers))
        .phases_per_batch();
  }
};

/// Worker invocation payload: which run this invocation belongs to and the
/// invoked worker's id. The run id lets one registered FaaS function (and
/// therefore one warm-instance pool) serve many concurrent runs.
struct WorkerPayload {
  uint64_t run_id = 0;
  int32_t worker_id = 0;
};

/// Fills `table` with one layer's input rows indexed by weight column:
/// slot c views the row for column c, or is empty for an inactive row.
/// Received bodies go in first, in arrival order, so a later body wins a
/// repeated row id; local rows go in last, so a local row wins. Every
/// received row is checked before anything is written: a row id outside
/// [0, cols) or a dim other than `batch` returns DataLoss and leaves
/// `table` untouched. Local rows outside [0, cols) are never read by the
/// kernel and are skipped.
Status BuildRowTable(const linalg::ActivationRows& local,
                     const ReceivedRows& received, int32_t cols,
                     int32_t batch, std::vector<linalg::RowView>* table);

Bytes EncodeWorkerPayload(uint64_t run_id, int32_t worker_id);
Result<WorkerPayload> DecodeWorkerPayload(const Bytes& payload);

/// Returns this FaaS instance's partition cache, creating it on first use
/// (a cold instance starts empty). The cache rides the instance-local
/// state, so it survives exactly as long as the warm instance does; the
/// byte budget is capped at half the instance's memory. Returns nullptr
/// when caching is disabled. Shared by the worker load path, the
/// ShareDistributor's peer inserts and the serving runtime's pre-warm
/// tasks — all three must agree on one cache per instance.
PartitionCache* InstancePartitionCache(cloud::FaasContext* ctx,
                                       const FsdOptions& options);

/// The one model-share miss path, shared by a worker's cold load and the
/// serving runtime's pre-warm tasks. Tries a warm peer first (when
/// `distributor` is set), else reads `share_bytes` from object storage:
/// multipart GETs billed at GET pricing and drawn across the IO lanes,
/// plus deserialization CPU. A completed read is inserted into `cache`
/// (when set; tagged pre-warmed when `prewarm`) and published to the
/// distributor; an interrupted read inserts nothing and is abandoned.
/// The latency draws' Rng seed mixes options.seed, `rng_salt` and the
/// partition id. Counts into `metrics`' load, cache-insert and
/// share-transfer counters.
Status LoadShareOnMiss(cloud::FaasContext* ctx, cloud::CloudEnv* cloud,
                       const FsdOptions& options, const std::string& family,
                       int32_t partition_id, uint64_t share_bytes,
                       uint64_t rng_salt, PartitionCache* cache,
                       ShareDistributor* distributor, bool prewarm,
                       ModelLoadMetrics* metrics);

/// The FaaS handler body for a worker invocation (payload already decoded
/// and routed to its run). Invokes its children (hierarchical launch), loads
/// its model share, then runs the FSI loop for every batch and participates
/// in barrier + reduce.
void RunFsiWorker(cloud::FaasContext* ctx, RunState* state, int32_t worker_id);

}  // namespace fsd::core

#endif  // FSD_CORE_WORKER_H_
