// Serving scheduler: the built-in stages of the ServingRuntime pipeline
// (Admission -> queue order -> batch flush -> Dispatcher).
//
// FSD-Inference targets sporadic, bursty workloads; when the arrival rate
// exceeds the deployment's sustainable throughput, an unconditional serving
// loop lets the queue — and every accepted query's latency — grow without
// bound. These stages make the overload behaviour explicit: admission
// decides WHETHER a query enters the queue (typed rejection instead of
// silent degradation), the queue discipline decides the ORDER queued work
// launches in (and ShedVictimIndex who is shed first), and the batch flush
// decides WHEN a coalescing batch stops waiting for peers
// (deadline-slack-driven instead of a fixed window). Each stage is one
// built-in rule selected by ServingOptions enums and bounds (shed_policy,
// queue_discipline, max_queue_depth, ...), written as pure decision logic
// over plain structs — no simulation, no worker trees — so each is
// unit-testable in isolation (tests/scheduler_test.cc).
//
// The fourth stage, the Dispatcher, is the slot-bounded launch gate; its
// pure bookkeeping half (DispatchGate) lives here too, while the actual
// process scheduling stays in the serving runtime. Pre-warming (stage 0)
// stays an interface: PreWarmPolicy.
#ifndef FSD_CORE_SCHEDULER_H_
#define FSD_CORE_SCHEDULER_H_

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fsd::core {

/// Absolute deadline value meaning "this query carries no SLO deadline".
inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// Margin the deadline batcher applies to the predicted execution time
/// when computing flush slack: flushing at deadline - est_exec would
/// finish exactly on the deadline if the prediction were perfect, so any
/// underestimate becomes a miss. 1.5x absorbs the typical error of the
/// coarse a-priori estimate until the EWMA takes over.
inline constexpr double kSlackSafetyFactor = 1.5;

/// What happens to the newest arrival when the admitted-but-unlaunched
/// queue is at its depth bound.
enum class ShedPolicy : int {
  /// The arriving query is rejected; queued queries are never disturbed.
  kRejectNew = 0,
  /// The lowest-priority queued query is shed to make room when the
  /// arrival outranks it; otherwise the arrival is rejected.
  kShedLowestPriority = 1,
};

/// Launch order of admitted-but-unlaunched work.
enum class QueueDiscipline : int {
  kFifo = 0,  ///< arrival order (the pre-scheduler behaviour)
  kEdf = 1,   ///< earliest absolute deadline first; ties by arrival
};

std::string_view ShedPolicyName(ShedPolicy policy);
std::string_view QueueDisciplineName(QueueDiscipline discipline);

/// The scheduler's view of one query: everything a stage may decide on,
/// nothing it may not (no model pointers, no outputs).
struct SchedQuery {
  uint64_t query_id = 0;
  double arrival_s = 0.0;           ///< virtual submission time
  double deadline_s = kNoDeadline;  ///< absolute SLO deadline
  int32_t priority = 0;             ///< higher = more important
  int32_t tenant = 0;               ///< tenant id (0 = default tenant)
  int32_t cols = 0;                 ///< sample columns (size proxy)
};

/// The shed-victim rule of admission's kShedLowestPriority: lowest
/// priority first, then latest deadline, then latest arrival — the queued
/// query whose loss costs the SLO least. `queue` must be non-empty.
size_t ShedVictimIndex(const std::vector<SchedQuery>& queue);

/// Live load snapshot admission decides on: queue state plus the
/// sustainable-throughput estimate (cost-model a-priori, refined by the
/// EWMA of observed run times once runs complete).
struct LoadSnapshot {
  double now_s = 0.0;
  int32_t queued = 0;            ///< admitted, not yet launched
  int32_t in_flight_runs = 0;    ///< worker trees currently executing
  int32_t max_concurrent_runs = 0;  ///< dispatcher slot bound (0 = none)
  double est_run_s = 0.0;        ///< per-tree execution-time estimate
  double ewma_service_rate_qps = 0.0;  ///< observed completions per second
  /// Queries/s the deployment can sustain (kUnbounded slots => +inf).
  double sustainable_qps = std::numeric_limits<double>::infinity();
};

/// Typed admission verdict. kShedVictim admits the arrival at the cost of
/// evicting `victim_query_id` from the queue (the runtime marks the victim
/// QueryDisposition::kShed with `reason`).
struct AdmissionDecision {
  enum class Action : int { kAdmit = 0, kReject = 1, kShedVictim = 2 };
  Action action = Action::kAdmit;
  std::string reason;            ///< set for kReject / kShedVictim
  uint64_t victim_query_id = 0;  ///< set for kShedVictim
};

/// Per-tenant admission quota: a token bucket refilled at `rate_qps`
/// (sustained admitted-query rate) with depth `burst` (<= 0 defaults to
/// max(1, rate_qps) — one second of rate), plus an optional fair-share cap
/// on the admitted-but-unlaunched queue (`max_queue_share` in (0, 1]; 0
/// disables it): an arrival whose tenant already holds more than its share
/// of the queue is rejected even with tokens left, so one bursty tenant
/// cannot monopolize the backlog ahead of the others.
struct TenantQuota {
  int32_t tenant = 0;
  double rate_qps = 0.0;      ///< <= 0 = no rate limit for this tenant
  double burst = 0.0;         ///< bucket depth in queries
  double max_queue_share = 0.0;
};

/// Stage 1: decides whether an arriving query may enter the queue. Each
/// listed tenant's quota is checked first; an arrival that passes it (and
/// every arrival of an unlisted tenant) then meets the bounds: a predicted
/// queue wait `queued / sustainable_qps` above `max_queue_wait_s` (< 0 =
/// no wait bound) rejects, and a queue holding `max_queue_depth` queries
/// (0 = no depth bound) rejects the arrival or sheds a lower-priority
/// member, per `shed`. No bounds and no quotas admit everything. A token
/// is spent only when the arrival is admitted, so a bound's rejection
/// never burns a tenant's budget. Stateful (bucket levels advance with
/// load.now_s) but strictly deterministic: identical arrival traces refill
/// and drain the buckets identically.
class Admission {
 public:
  Admission(int32_t max_queue_depth, double max_queue_wait_s, ShedPolicy shed,
            const std::vector<TenantQuota>& quotas = {});

  /// `queue` is the current admitted-but-unlaunched set (the shed-victim
  /// pool and the tenant-share count).
  AdmissionDecision Decide(const SchedQuery& arrival, const LoadSnapshot& load,
                           const std::vector<SchedQuery>& queue);

 private:
  struct Bucket {
    double rate_qps = 0.0;
    double burst = 0.0;
    double tokens = 0.0;
    double last_refill_s = -1.0;
    double max_queue_share = 0.0;
  };

  /// The depth and wait bounds alone.
  AdmissionDecision DecideBounds(const SchedQuery& arrival,
                                 const LoadSnapshot& load,
                                 const std::vector<SchedQuery>& queue) const;

  int32_t max_queue_depth_ = 0;
  double max_queue_wait_s_ = -1.0;
  ShedPolicy shed_ = ShedPolicy::kRejectNew;
  std::map<int32_t, Bucket> buckets_;  ///< by tenant
};

/// Stage 2 order: should `a` launch before `b` under `discipline`? A
/// strict-weak order. FIFO: arrival, then query id. EDF: higher priority
/// class first; within a class earliest absolute deadline (deadline-free
/// queries sort after every deadline-carrying one: kNoDeadline is +inf),
/// then arrival, then query id.
bool LaunchesBefore(QueueDiscipline discipline, const SchedQuery& a,
                    const SchedQuery& b);

/// Stage 3: seconds a coalescing batch may still wait for peers from
/// `now_s` (<= 0 means flush immediately). `members` is the batch so far
/// (first member joined first), `window_s` the configured coalescing
/// window, `est_exec_s` the predicted execution time of the batch's worker
/// tree. Waits out the window, but flushes early when the earliest member
/// deadline's slack — deadline minus kSlackSafetyFactor x est_exec_s —
/// would otherwise run out. With no deadlines this is exactly the window.
double BatchFlushIn(const std::vector<SchedQuery>& members, double now_s,
                    double window_s, double est_exec_s);

/// What the pre-warm policy sees at one arrival of a model family: the
/// family's live demand estimate (EWMA arrival rate x per-tree service
/// time, in instances via Little's law), the warm supply already standing,
/// and the dollars the policy may still commit. Pure inputs — the serving
/// runtime assembles them from its EWMAs, the FaaS warm pool and the cost
/// model's share-transfer break-even estimate.
struct PrewarmSnapshot {
  double now_s = 0.0;
  double arrival_rate_qps = 0.0;  ///< family EWMA of observed arrivals
  double est_run_s = 0.0;         ///< per-tree execution-time estimate
  int32_t workers_per_run = 0;    ///< P — instances one tree occupies
  int32_t warm_instances = 0;     ///< idle warm pool of the worker function
  int32_t in_flight_runs = 0;     ///< trees currently executing
  int32_t pending_prewarms = 0;   ///< pre-warm invocations not yet landed
  /// Predicted dollars to pre-warm one instance (invocation + share load
  /// down the cheaper of the storage / peer paths).
  double est_cost_per_instance = 0.0;
  /// Budget dollars not yet committed (committed = invocations fired x
  /// their estimate); a policy must never plan past it.
  double budget_remaining = 0.0;
};

/// How many instances to pre-warm right now (0 = none) and why.
struct PrewarmDecision {
  int32_t instances = 0;
  std::string reason;
};

/// Stage 0 (ahead of admission): provisions capacity BEFORE the queue
/// forms. Decisions must be a pure function of the snapshot so identical
/// traces pre-warm identically.
class PreWarmPolicy {
 public:
  virtual ~PreWarmPolicy() = default;
  virtual std::string_view name() const = 0;
  virtual PrewarmDecision Decide(const PrewarmSnapshot& snapshot) = 0;
};

/// Stage 4 (pure bookkeeping half): counts worker trees into execution
/// slots. TryAcquire() succeeds while slots are free; a finished run either
/// hands its slot to parked work or Release()s it. The serving runtime owns
/// the process parking/waking; this gate only owns the arithmetic, so the
/// slot invariant is testable without a simulation.
class DispatchGate {
 public:
  /// `max_concurrent_runs` <= 0 means unbounded (every TryAcquire succeeds).
  explicit DispatchGate(int32_t max_concurrent_runs)
      : max_concurrent_runs_(max_concurrent_runs) {}

  bool TryAcquire() {
    if (max_concurrent_runs_ > 0 && in_flight_ >= max_concurrent_runs_) {
      return false;
    }
    ++in_flight_;
    return true;
  }
  void Release() {
    if (in_flight_ > 0) --in_flight_;
  }
  int32_t in_flight() const { return in_flight_; }
  bool bounded() const { return max_concurrent_runs_ > 0; }

 private:
  int32_t max_concurrent_runs_ = 0;
  int32_t in_flight_ = 0;
};

/// Little's-law rate pre-warmer: demand is ceil(arrival_rate x est_run_s)
/// concurrent trees x P instances each; supply is the warm pool plus the
/// instances in-flight trees and pending pre-warms already occupy. The
/// deficit is pre-warmed, capped by what the remaining budget affords at
/// the per-instance cost estimate. Degenerate snapshots (unseeded rate or
/// run-time estimate, zero-size trees) decide 0 — the policy can only ever
/// spend budget on a measured signal.
std::shared_ptr<PreWarmPolicy> MakeRatePreWarmPolicy();

}  // namespace fsd::core

#endif  // FSD_CORE_SCHEDULER_H_
