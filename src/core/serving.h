// ServingRuntime: concurrent multi-query serving on one simulated cloud.
//
// Every query, a lone RunInference call included, starts here: a serving
// deployment faces a *stream* of queries whose executions overlap, and
// ServingRuntime schedules each submitted request as its own arrival
// process inside one Simulation/CloudEnv, so in-flight queries interleave
// exactly as concurrent Lambda fleets do (it is also the only code that
// registers FaaS functions):
//
//  - FaaS warm pools are shared: all queries of one function group (same
//    worker memory/timeout) run behind ONE registered function, so an
//    instance freed by query i serves query j warm. Payloads carry
//    (run_id, worker_id) and the shared handler dispatches to the right
//    run's state.
//  - Channels stay isolated: every run gets a channel_scope prefixing
//    its topics/queues/buckets, so overlapping runs can never
//    cross-deliver activation rows (the FMI lesson: shared communication
//    machinery must stay correct under many concurrent groups).
//  - Billing is shared: per-query "actual" dollars are not separable on a
//    concurrent ledger, so the report carries the workload-level ledger
//    delta plus per-query cost-model attributions.
//  - Warm state is reused: because function groups share warm pools, a
//    worker instance freed by one query carries its instance-local
//    PartitionCache into the next query it serves — repeated queries of
//    one model family skip their model-share reads (FleetStats reports
//    the hit ratio and bytes saved). The cache budget is part of the
//    function-group key, so queries with different
//    partition_cache_budget_bytes never share warm instances (an
//    instance's cache is created by whichever run touches it first).
//  - Concurrent same-family queries are batched: with batch_window_s > 0,
//    queries whose requests could run in one worker tree (same model,
//    partition and execution options) and whose arrivals fall inside the
//    window coalesce into ONE run whose batch list is the concatenation
//    of the members' batches. The tree is launched once (P invocations,
//    P model-share loads) and processes every member's batches; the root
//    slices outputs back per query, metrics and cost are attributed per
//    member (exact per batch, batch-share for tree-level costs), and each
//    QueryOutcome's latency runs from its own submission — the coalescing
//    wait is visible as queue_wait_s, never hidden. Outputs are
//    byte-identical to unbatched serving: the FSI loop is per batch, so
//    concatenation changes WHEN a batch runs, never its values.
//  - Scheduling is an explicit four-stage pipeline: Admission -> queue
//    order -> batch flush -> Dispatcher (core/scheduler.h), each one
//    built-in rule chosen by the ServingOptions enums and bounds
//    (shed_policy, queue_discipline, max_queue_depth, ...). With
//    admission_control on, an arrival is admitted, rejected (typed
//    QueryOutcome::disposition + reject_reason) or traded against a shed
//    lower-priority queue member, based on the cost model's
//    sustainable-throughput estimate refined by live EWMAs of observed run
//    times. Queries carry optional SLO deadlines and priority classes
//    (FsdOptions::slo_deadline_s / priority): the batcher generalizes the
//    fixed window into deadline-slack flushing, and with
//    max_concurrent_runs > 0 flushed batches park in queue-discipline
//    order (FIFO or EDF) until a finishing tree hands its slot over.
//    Every pipeline knob defaults off, reproducing the unconditional
//    accept-and-window behaviour byte-identically.
//
// Submitted request pointers (model, partition, batches) must stay alive
// until Drain() returns.
#ifndef FSD_CORE_SERVING_H_
#define FSD_CORE_SERVING_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/cloud.h"
#include "core/runtime.h"
#include "core/scheduler.h"
#include "core/worker.h"

namespace fsd::core {

struct ServingOptions {
  /// Register one worker/coordinator function per (memory, timeout) group
  /// instead of per query: enables warm-start reuse across queries.
  /// Disabling reproduces the one-function-per-run behaviour (ablation).
  bool share_functions = true;
  /// Abort every in-flight and future query as soon as one fails.
  bool stop_on_failure = false;
  /// Stop the simulation at this virtual time even if queries are still in
  /// flight (< 0 runs to completion). Unfinished queries report errors.
  double run_until = -1.0;

  /// --- cross-query batching ---
  /// How long the first query of a batch family waits for same-family
  /// peers before its worker tree launches. 0 disables batching entirely
  /// (every query runs its own tree — the pre-batching behaviour).
  double batch_window_s = 0.0;
  /// Most queries one shared tree may serve; a full batch flushes
  /// immediately instead of waiting out the window.
  int32_t max_batch_queries = 8;
  /// Cap on the summed sample columns of a shared tree's batches (bounds
  /// worker working-set growth); a batch at the cap flushes immediately.
  int32_t max_batch_cols = 8192;

  /// --- scheduler pipeline (Admission -> queue order -> batch flush ->
  /// Dispatcher; see core/scheduler.h) ---
  /// Enable SLO-aware admission control: arriving queries are admitted,
  /// rejected (QueryDisposition::kRejected with a typed reason) or traded
  /// against a shed queue member, instead of queueing unconditionally.
  /// Off (the default) admits every arrival.
  bool admission_control = false;
  /// Most queries that may sit admitted-but-unlaunched at once (counting
  /// open coalescing batches and runs parked on dispatch slots); arrivals
  /// beyond it are rejected or shed per `shed_policy`. 0 = no depth bound.
  int32_t max_queue_depth = 64;
  /// Reject arrivals whose predicted queue wait (queued / sustainable
  /// throughput from the cost model's a-priori estimate, EWMA-refined)
  /// exceeds this bound. < 0 = no wait bound.
  double max_queue_wait_s = -1.0;
  /// What yields when the queue is at its depth bound.
  ShedPolicy shed_policy = ShedPolicy::kRejectNew;
  /// Launch order of queued work (and of runs parked on dispatch slots).
  QueueDiscipline queue_discipline = QueueDiscipline::kFifo;
  /// Most worker trees in flight at once (the account-level FaaS
  /// concurrency limit divided by tree size); flushed batches beyond it
  /// park in `queue_discipline` order until a slot frees. 0 = unbounded
  /// (the pre-scheduler behaviour: every flush launches immediately).
  int32_t max_concurrent_runs = 0;

  /// Per-tenant admission quotas (token-bucket rate limits and fair queue
  /// shares; see TenantQuota). Checked ahead of the bounds above, and
  /// enforced even when `admission_control` is off (the bounds then stay
  /// unset), so quota rejections apply to every arrival. Tenants not
  /// listed here are never quota-limited.
  std::vector<TenantQuota> tenant_quotas;

  /// --- λScale-style fast scaling (core/share_distributor.h) ---
  /// Serve cold model-share loads peer-to-peer from warm holders before
  /// paying the object-storage front door: a flash crowd's P concurrent
  /// cold loads of one share collapse to ~1 storage read plus P-1 peer
  /// transfers multicast down `share_multicast_topology`. Off (the
  /// default) keeps the storage-only cold path byte-identically; on, the
  /// outputs are unchanged — only WHERE share bytes come from moves.
  bool peer_share_transfer = false;
  /// Multicast shape for concurrent requesters of one share.
  CollectiveTopology share_multicast_topology =
      CollectiveTopology::kBinomialTree;
  /// Predictively pre-warm worker instances (invoke + load shares) when a
  /// family's EWMA arrival rate says the warm pool will not cover the
  /// incoming demand — capacity stands up BEFORE the queue forms.
  bool predictive_prewarm = false;
  /// Hard cap on the dollars the pre-warm loop may commit (its invocation
  /// + share-load estimates accumulate against this; see
  /// FleetStats::prewarm_budget_spent). <= 0 disables pre-warming even
  /// with `predictive_prewarm` on.
  double prewarm_budget_dollars = 0.05;
  /// Custom pre-warm policy; null materializes MakeRatePreWarmPolicy.
  std::shared_ptr<PreWarmPolicy> prewarm_policy;
};

/// One query's result within a workload.
struct QueryOutcome {
  uint64_t query_id = 0;
  double arrival_s = 0.0;  ///< virtual submission time
  double finish_s = 0.0;   ///< virtual completion time
  /// Submission -> worker-tree launch (the batching window wait; 0 when
  /// the query ran unbatched). Included in report.latency_s.
  double queue_wait_s = 0.0;
  uint64_t run_id = 0;     ///< the worker tree that served this query
  int32_t batch_peers = 1; ///< queries sharing that tree (1 = ran alone)
  /// Typed terminal state. Exactly one disposition applies; kRejected and
  /// kShed carry `reject_reason` and never launched (run_id stays 0).
  QueryDisposition disposition = QueryDisposition::kInFlight;
  std::string reject_reason;
  /// SLO class (copied from the request's FsdOptions at submission).
  int32_t priority = 0;
  /// Tenant the query billed under (copied from the request's FsdOptions
  /// at submission; 0 = default tenant).
  int32_t tenant = 0;
  /// Absolute deadline (arrival + slo_deadline_s); kNoDeadline when the
  /// query carried none.
  double deadline_s = kNoDeadline;
  /// Whether a completed query finished by its deadline (true when it
  /// carried none); meaningless for other dispositions.
  bool deadline_met = true;
  /// latency_s is measured from submission. report.outputs is empty until
  /// the query finishes, then one immutable buffer that every later
  /// Drain() hands back by reference.
  InferenceReport report;
};

struct ServingReport {
  std::vector<QueryOutcome> queries;  ///< in submission order
  FleetStats fleet;
  BillingDelta billing;  ///< whole-workload ledger delta
};

class ServingRuntime {
 public:
  explicit ServingRuntime(cloud::CloudEnv* cloud,
                          ServingOptions options = {});
  /// Tears down the share distributor (deleting its fabric session and
  /// relay namespace — the relay's node-seconds bill lands here, AFTER any
  /// Drain() measured its window).
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Schedules `request` to arrive at virtual time `arrival_s` (relative to
  /// the simulation clock at submission). Validates immediately; execution
  /// happens during Drain(). Every query takes one path: arrival
  /// (admission, batching) -> dispatch slot -> BuildRun -> ExecuteRun.
  /// Provisioning waits until the query is admitted and its run launches —
  /// a rejected query never provisions anything, and a provisioning or
  /// registration error reports the query kFailed. Returns the query id.
  Result<uint64_t> Submit(const InferenceRequest& request, double arrival_s);

  /// Drives the simulation until all submitted queries completed (or a
  /// virtual-time horizon) and aggregates per-query and fleet results.
  /// `run_until` overrides options_.run_until for this call (pass a later
  /// absolute time — or a negative value for run-to-completion — to resume
  /// queries a previous horizon cut off). May be called repeatedly; the
  /// report covers all queries submitted so far, `billing` is the ledger
  /// delta since the previous call, and fleet dollar figures accumulate
  /// across calls. Each call copies every outcome, but a finished query's
  /// outputs are shared (QueryOutputs), so a copy costs a reference count
  /// and every call's report points at the same output maps.
  Result<ServingReport> Drain();
  Result<ServingReport> Drain(double run_until);

  /// Marks every unfinished query aborted so in-flight workers drain
  /// promptly instead of blocking on peers (kill path). Queries still
  /// waiting in a batch window abort when their batch flushes.
  void AbortAll();

  int32_t queries_submitted() const {
    return static_cast<int32_t>(queries_.size());
  }

 private:
  struct Query {
    InferenceRequest request;  ///< kept for preparation at launch
    QueryOutcome outcome;
    RunState* state = nullptr;  ///< set once the query's run exists
    bool aborted = false;
    bool finished = false;
  };

  /// One worker tree (possibly serving several coalesced queries).
  struct Run {
    std::unique_ptr<RunState> state;
    std::vector<uint64_t> member_ids;  ///< queries, in batch order
    std::string coordinator_function;
    bool finished = false;
    bool ok = false;
    int64_t worker_invocations = 0;
    int64_t cold_starts = 0;
  };

  /// Same-family queries waiting out the batching window together.
  struct PendingBatch {
    std::string family;
    std::vector<uint64_t> member_ids;
    int64_t total_cols = 0;
    /// When the batcher wants this batch launched (absolute virtual time):
    /// open time + window, tightened whenever a joining member's deadline
    /// slack demands an earlier flush.
    double flush_at = 0.0;
    /// True once the batch must launch immediately (size caps hit). The
    /// window process re-checks it after every wake.
    bool flush_due = false;
    /// Fired to wake the window process early: the batch filled, or a
    /// joining member tightened flush_at (signals are one-shot, so
    /// tightening installs a fresh one before firing the old).
    std::shared_ptr<sim::SimSignal> flush_now;
  };

  /// A flushed batch waiting for a dispatch slot (stage 4). Its flush
  /// process blocks on `wake`; a finishing run hands its slot over by
  /// firing `wake` with `granted` set, and shedding the last member fires
  /// it unset so the process unwinds without launching.
  struct ParkedRun {
    std::vector<uint64_t> member_ids;
    std::shared_ptr<sim::SimSignal> wake;
    bool granted = false;
    bool woken = false;
  };

  /// Registers (once) and names the shared worker/coordinator pair for the
  /// request's function group.
  Result<std::string> EnsureWorkerFunction(const FsdOptions& options);
  Result<std::string> EnsureCoordinatorFunction(const FsdOptions& options);

  /// Builds the (possibly multi-member) run under a fresh run id: merges
  /// the member requests, provisions channels, registers functions, and
  /// stores the Run.
  Result<Run*> BuildRun(const std::vector<uint64_t>& member_ids);
  /// Runs one worker tree to completion and collects every member's
  /// report. Must be called from inside a simulation process.
  void ExecuteRun(Run* run);
  /// Stage 1+2 entry, run at every query's virtual arrival time: stamps
  /// the absolute deadline, consults admission (reject / shed a victim /
  /// admit), then hands the query to the batcher or straight to the
  /// dispatcher.
  void ArriveQuery(uint64_t query_id);
  /// Whether arrivals route through the admission stage: the explicit
  /// knob or tenant quotas. Off, arrivals skip the load snapshot and its
  /// cost-model estimate entirely.
  bool AdmissionEnabled() const;
  /// Called at a query's virtual arrival time (batching path): joins or
  /// opens the family's pending batch, flushing on size caps.
  void JoinBatch(uint64_t query_id);
  /// Flushes batch `batch_id` (if still pending) into the dispatcher.
  void FlushBatch(uint64_t batch_id);
  /// Stage 4: launches the members' run when a dispatch slot is free,
  /// otherwise parks in queue-discipline order until a finishing run hands
  /// its slot over. Runs in the calling process.
  void DispatchRun(std::vector<uint64_t> member_ids);
  /// Builds and executes one run (the flushed members) in this process.
  void LaunchRun(const std::vector<uint64_t>& member_ids);
  /// Reports every member aborted before its run launched as kAborted and
  /// returns the others, in order.
  std::vector<uint64_t> DropAbortedMembers(
      const std::vector<uint64_t>& member_ids);
  /// Hands the calling run's dispatch slot to the best parked run (per the
  /// queue discipline) or frees it.
  void ReleaseSlot();
  /// Marks `victim` shed (QueryDisposition::kShed) and removes it from its
  /// open batch or parked run.
  void ShedQuery(uint64_t victim_id, const std::string& reason);
  void RejectQuery(Query* query, const std::string& reason);
  void FailQueries(const std::vector<uint64_t>& ids, const Status& status,
                   QueryDisposition disposition);
  /// Removes a query from the admitted-but-unlaunched set when it leaves.
  void Dequeue(Query* query);

  /// One pending pre-warm invocation: everything the shared worker handler
  /// needs to load one partition's share into whatever instance the
  /// invocation lands on (no RunState exists for a pre-warm — the payload's
  /// run id names this task instead).
  struct PrewarmTask {
    FsdOptions options;  ///< defaulted (worker memory) request options
    std::string rate_key;  ///< FamilyRate entry to credit on landing
    std::string cache_family;
    const model::SparseDnn* dnn = nullptr;
    const part::ModelPartition* partition = nullptr;
    int32_t partition_id = 0;
    uint64_t share_bytes = 0;
  };

  /// Per-family arrival bookkeeping feeding the pre-warm policy: the
  /// arrival-rate EWMA (coincident arrivals of one burst batch into the
  /// next gap's rate sample) and the round-robin partition cursor spreading
  /// pre-warm loads across the family's P shares.
  struct FamilyRate {
    double ewma_qps = 0.0;
    double last_arrival_s = -1.0;
    int32_t coincident = 0;        ///< arrivals seen at last_arrival_s
    uint64_t next_partition = 0;   ///< round-robin pre-warm share cursor
    int32_t pending_prewarms = 0;  ///< invocations fired, not yet landed
  };

  /// The distributor is created on first use (peer_share_transfer or a
  /// pre-warm with publication); scope-uniqued per runtime instance.
  ShareDistributor* EnsureShareDistributor();
  /// Stage 0, ahead of admission: refreshes the query family's arrival
  /// EWMA and lets the pre-warm policy stand up capacity for it.
  void ObserveArrival(uint64_t query_id);
  void MaybePrewarm(const Query& query, FamilyRate* rate);
  /// Handler body for one pre-warm invocation (dispatched by the shared
  /// worker handler when the payload names a pre-warm task, not a run):
  /// loads the task's share into this instance's cache marked pre-warmed,
  /// preferring a peer transfer, and publishes the instance as a holder.
  void RunPrewarmTask(cloud::FaasContext* ctx, uint64_t task_id);

  /// Scheduler views/inputs: the queued set as plain SchedQuery structs,
  /// the live load snapshot for admission, the batcher's flush timeout,
  /// and the per-tree execution-time estimate (EWMA of observed runs,
  /// seeded by the cost model's a-priori estimate per family).
  SchedQuery SchedView(const Query& query) const;
  std::vector<SchedQuery> QueuedSnapshot() const;
  LoadSnapshot BuildLoadSnapshot(const Query& query);
  double FlushTimeout(const PendingBatch& batch);
  double EstRunSeconds(const Query& query);
  /// Refreshes the run-time/occupancy/service-rate EWMAs after a
  /// successful run.
  void UpdateLiveStats(const Run& run, double launch_s, double finish_s);

  cloud::CloudEnv* cloud_;
  ServingOptions options_;
  uint64_t instance_id_ = 0;  ///< uniques function names on a shared cloud
  std::map<uint64_t, std::unique_ptr<Query>> queries_;  ///< by query id
  std::map<uint64_t, std::unique_ptr<Run>> runs_;       ///< by run id
  std::vector<uint64_t> submission_order_;
  std::map<std::string, std::string> function_groups_;  ///< group -> name
  std::map<uint64_t, PendingBatch> pending_batches_;    ///< by batch id
  std::map<std::string, uint64_t> open_batch_by_family_;
  /// Admitted but not yet launched (in an open coalescing batch or a parked
  /// run): the shed-victim pool and the admission queue depth.
  std::set<uint64_t> queued_ids_;
  uint64_t next_batch_id_ = 0;
  double accumulated_cost_ = 0.0;  ///< workload dollars across Drain calls

  /// --- scheduler pipeline state ---
  Admission admission_;
  DispatchGate gate_;
  std::map<uint64_t, ParkedRun> parked_;  ///< by park sequence (FIFO ties)
  uint64_t next_park_seq_ = 0;
  /// Live estimates feeding admission and the batcher: per-tree execution
  /// time (EWMA over completed runs, a-priori-seeded), expected occupancy,
  /// and the observed service rate.
  double ewma_run_s_ = 0.0;
  bool ewma_run_seeded_ = false;
  double ewma_occupancy_ = 1.0;
  double ewma_service_rate_qps_ = 0.0;
  double last_run_finish_s_ = -1.0;
  std::map<std::string, double> apriori_run_s_by_family_;

  /// --- λScale fast scaling state ---
  std::unique_ptr<ShareDistributor> share_distributor_;
  std::shared_ptr<PreWarmPolicy> prewarm_;
  std::map<std::string, FamilyRate> family_rates_;  ///< by batch family
  std::map<uint64_t, PrewarmTask> prewarm_tasks_;   ///< by task id
  /// Pre-warm aggregates surfaced through FleetStats (the loop runs
  /// outside any query's tree, so nothing here is query-attributed).
  double prewarm_budget_spent_ = 0.0;
  int32_t prewarm_invocations_ = 0;
  ModelLoadMetrics prewarm_loads_;  ///< every pre-warm task's share load
};

/// Poisson arrival process: `count` arrival times with exponential
/// inter-arrival gaps at `rate_qps` (deterministic per seed).
std::vector<double> PoissonArrivals(double rate_qps, int32_t count,
                                    uint64_t seed);

/// Burst trace: `bursts` groups of `per_burst` arrivals `gap_s` apart, with
/// queries inside a burst arriving simultaneously (+ arrivals start at
/// `start_s`). Models the sporadic traffic of the paper's motivating
/// scenario.
std::vector<double> BurstArrivals(int32_t bursts, int32_t per_burst,
                                  double gap_s, double start_s = 0.0);

}  // namespace fsd::core

#endif  // FSD_CORE_SERVING_H_
