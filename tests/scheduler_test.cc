// Scheduler unit tests: admission, queue order and batch flush decided
// against synthetic arrival traces as pure logic — no simulation, no
// worker trees. Covers EDF ordering, slack-triggered batch flushing,
// shed-by-priority victim selection, depth/wait-bound rejection, the
// tenant-quota stage, the dispatch-gate slot invariant, and per-seed
// determinism of the decision sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/serving.h"

namespace fsd::core {
namespace {

SchedQuery Q(uint64_t id, double arrival_s, double deadline_s = kNoDeadline,
             int32_t priority = 0) {
  SchedQuery q;
  q.query_id = id;
  q.arrival_s = arrival_s;
  q.deadline_s = deadline_s;
  q.priority = priority;
  q.cols = 16;
  return q;
}

std::vector<uint64_t> Ids(const std::vector<SchedQuery>& queue) {
  std::vector<uint64_t> ids;
  for (const SchedQuery& q : queue) ids.push_back(q.query_id);
  return ids;
}

/// Stable-sorts `queue` into `discipline`'s launch order.
void Order(QueueDiscipline discipline, std::vector<SchedQuery>* queue) {
  std::stable_sort(queue->begin(), queue->end(),
                   [discipline](const SchedQuery& a, const SchedQuery& b) {
                     return LaunchesBefore(discipline, a, b);
                   });
}

TEST(QueuePolicyTest, FifoOrdersByArrivalThenId) {
  std::vector<SchedQuery> queue{Q(3, 2.0), Q(1, 0.5), Q(2, 0.5), Q(4, 1.0)};
  Order(QueueDiscipline::kFifo, &queue);
  EXPECT_EQ(Ids(queue), (std::vector<uint64_t>{1, 2, 4, 3}));
}

TEST(QueuePolicyTest, EdfOrdersByDeadlineWithinPriorityClass) {
  std::vector<SchedQuery> queue{
      Q(1, 0.0, /*deadline_s=*/9.0),
      Q(2, 1.0, /*deadline_s=*/4.0),
      Q(3, 2.0),  // no deadline: sorts after every deadline-carrying peer
      Q(4, 3.0, /*deadline_s=*/6.0),
      Q(5, 4.0, /*deadline_s=*/20.0, /*priority=*/1),  // outranks them all
  };
  Order(QueueDiscipline::kEdf, &queue);
  EXPECT_EQ(Ids(queue), (std::vector<uint64_t>{5, 2, 4, 1, 3}));
}

TEST(QueuePolicyTest, EdfBreaksDeadlineTiesByArrival) {
  std::vector<SchedQuery> queue{Q(2, 1.0, 5.0), Q(1, 0.0, 5.0)};
  Order(QueueDiscipline::kEdf, &queue);
  EXPECT_EQ(Ids(queue), (std::vector<uint64_t>{1, 2}));
}

TEST(QueuePolicyTest, ShedVictimIsLowestPriorityLatestDeadline) {
  const std::vector<SchedQuery> queue{
      Q(1, 0.0, 5.0, /*priority=*/1),
      Q(2, 1.0, 3.0, /*priority=*/0),
      Q(3, 2.0, 8.0, /*priority=*/0),  // lowest class, latest deadline
      Q(4, 3.0, 4.0, /*priority=*/2),
  };
  EXPECT_EQ(queue[ShedVictimIndex(queue)].query_id, 3u);
  // Among equals, the latest arrival yields first.
  const std::vector<SchedQuery> ties{Q(1, 0.0), Q(2, 1.0), Q(3, 0.5)};
  EXPECT_EQ(ties[ShedVictimIndex(ties)].query_id, 2u);
}

TEST(BatchPolicyTest, NoDeadlineMeansFixedWindow) {
  const std::vector<SchedQuery> members{Q(1, 0.0), Q(2, 0.01)};
  EXPECT_DOUBLE_EQ(
      BatchFlushIn(members, /*now_s=*/0.02, /*window_s=*/0.5,
                   /*est_exec_s=*/1.0),
      0.5);
}

TEST(BatchPolicyTest, SlackTriggeredFlushUsesOldestMemberDeadline) {
  // Member 1 must finish by t=2.0 and execution is predicted at 1.0s: the
  // batch may wait until its safety-margined slack
  // (2.0 - 0.1 - kSlackSafetyFactor * 1.0) runs out, even though the
  // window would allow 5s.
  const std::vector<SchedQuery> members{Q(1, 0.0, /*deadline_s=*/2.0),
                                        Q(2, 0.05, /*deadline_s=*/9.0)};
  EXPECT_NEAR(BatchFlushIn(members, /*now_s=*/0.1, /*window_s=*/5.0,
                           /*est_exec_s=*/1.0),
              1.9 - kSlackSafetyFactor, 1e-12);
  // Slack already exhausted: flush immediately, never negative.
  EXPECT_DOUBLE_EQ(BatchFlushIn(members, /*now_s=*/1.5, /*window_s=*/5.0,
                                /*est_exec_s=*/1.0),
                   0.0);
  // Ample slack: the window still caps the wait.
  EXPECT_DOUBLE_EQ(BatchFlushIn(members, /*now_s=*/0.1, /*window_s=*/0.3,
                                /*est_exec_s=*/0.01),
                   0.3);
}

LoadSnapshot Load(int32_t queued, double sustainable_qps,
                  int32_t max_concurrent_runs = 2) {
  LoadSnapshot load;
  load.queued = queued;
  load.max_concurrent_runs = max_concurrent_runs;
  load.sustainable_qps = sustainable_qps;
  return load;
}

TEST(AdmissionTest, AdmitAllNeverRejects) {
  // No bounds and no quotas: the admission-off configuration.
  Admission admit_all(/*max_queue_depth=*/0, /*max_queue_wait_s=*/-1.0,
                      ShedPolicy::kRejectNew);
  const AdmissionDecision decision =
      admit_all.Decide(Q(1, 0.0), Load(1 << 20, 0.001), {});
  EXPECT_EQ(decision.action, AdmissionDecision::Action::kAdmit);
}

TEST(AdmissionTest, DepthBoundRejectsWithTypedReason) {
  Admission admission(/*max_queue_depth=*/2,
                      /*max_queue_wait_s=*/-1.0,
                      ShedPolicy::kRejectNew);
  const std::vector<SchedQuery> queue{Q(1, 0.0), Q(2, 0.1)};
  EXPECT_EQ(admission.Decide(Q(3, 0.2), Load(1, 10.0), {Q(1, 0.0)}).action,
            AdmissionDecision::Action::kAdmit);
  const AdmissionDecision rejected =
      admission.Decide(Q(3, 0.2), Load(2, 10.0), queue);
  EXPECT_EQ(rejected.action, AdmissionDecision::Action::kReject);
  EXPECT_NE(rejected.reason.find("depth"), std::string::npos);
}

TEST(AdmissionTest, WaitBoundRejectsOnPredictedWait) {
  Admission admission(/*max_queue_depth=*/0,
                      /*max_queue_wait_s=*/1.0,
                      ShedPolicy::kRejectNew);
  // An empty queue never trips the wait bound, whatever the rate.
  EXPECT_EQ(admission.Decide(Q(9, 0.0), Load(0, 0.01), {}).action,
            AdmissionDecision::Action::kAdmit);
  // 4 ahead at 10 qps -> predicted wait 0.4s: fine.
  EXPECT_EQ(admission.Decide(Q(9, 0.0), Load(4, 10.0), {}).action,
            AdmissionDecision::Action::kAdmit);
  // 20 ahead at 10 qps -> predicted wait 2s: rejected.
  const AdmissionDecision rejected =
      admission.Decide(Q(9, 0.0), Load(20, 10.0), {});
  EXPECT_EQ(rejected.action, AdmissionDecision::Action::kReject);
  EXPECT_NE(rejected.reason.find("wait"), std::string::npos);
  // An unbounded dispatcher sustains any rate: never rejected on wait.
  const LoadSnapshot unbounded =
      Load(1 << 20, std::numeric_limits<double>::infinity(),
           /*max_concurrent_runs=*/0);
  EXPECT_EQ(admission.Decide(Q(9, 0.0), unbounded, {}).action,
            AdmissionDecision::Action::kAdmit);
}

TEST(AdmissionTest, ShedLowestPriorityMakesRoomForOutrankingArrival) {
  Admission admission(/*max_queue_depth=*/2,
                      /*max_queue_wait_s=*/-1.0,
                      ShedPolicy::kShedLowestPriority);
  const std::vector<SchedQuery> queue{Q(1, 0.0, 5.0, /*priority=*/0),
                                      Q(2, 0.1, 9.0, /*priority=*/0)};
  // Higher-priority arrival: the lowest-priority, latest-deadline member
  // yields.
  const AdmissionDecision shed =
      admission.Decide(Q(3, 0.2, 4.0, /*priority=*/1), Load(2, 10.0), queue);
  EXPECT_EQ(shed.action, AdmissionDecision::Action::kShedVictim);
  EXPECT_EQ(shed.victim_query_id, 2u);
  EXPECT_FALSE(shed.reason.empty());
  // Equal priority never sheds: the arrival is rejected instead.
  EXPECT_EQ(admission.Decide(Q(3, 0.2, 4.0, /*priority=*/0), Load(2, 10.0),
                              queue)
                .action,
            AdmissionDecision::Action::kReject);
}

TEST(AdmissionTest, DecisionSequenceIsDeterministicPerSeed) {
  // A synthetic serving loop over a Poisson trace: arrivals enqueue, the
  // "fleet" dequeues at a fixed service rate. The admission decision
  // sequence must be a pure function of the trace (identical per seed).
  auto run_trace = [](uint64_t seed) {
    Admission admission(/*max_queue_depth=*/3,
                        /*max_queue_wait_s=*/-1.0,
                        ShedPolicy::kRejectNew);
    const std::vector<double> arrivals =
        PoissonArrivals(/*rate_qps=*/8.0, /*count=*/64, seed);
    constexpr double kServiceRateQps = 4.0;
    std::vector<SchedQuery> queue;
    std::vector<int> decisions;
    double drained_until = 0.0;
    for (size_t i = 0; i < arrivals.size(); ++i) {
      // Dequeue whatever the service rate finished by now.
      while (!queue.empty() &&
             drained_until + 1.0 / kServiceRateQps <= arrivals[i]) {
        drained_until += 1.0 / kServiceRateQps;
        queue.erase(queue.begin());
      }
      if (drained_until < arrivals[i] && queue.empty()) {
        drained_until = arrivals[i];
      }
      const SchedQuery arrival = Q(i, arrivals[i]);
      LoadSnapshot load;
      load.now_s = arrivals[i];
      load.queued = static_cast<int32_t>(queue.size());
      load.max_concurrent_runs = 1;
      load.sustainable_qps = kServiceRateQps;
      const AdmissionDecision decision =
          admission.Decide(arrival, load, queue);
      decisions.push_back(static_cast<int>(decision.action));
      if (decision.action == AdmissionDecision::Action::kAdmit) {
        queue.push_back(arrival);
      }
    }
    return decisions;
  };
  const auto a = run_trace(7);
  EXPECT_EQ(a, run_trace(7));  // same seed, same decisions — always
  // The trace genuinely exercised both outcomes.
  EXPECT_NE(std::count(a.begin(), a.end(),
                       static_cast<int>(AdmissionDecision::Action::kReject)),
            0);
  EXPECT_NE(std::count(a.begin(), a.end(),
                       static_cast<int>(AdmissionDecision::Action::kAdmit)),
            0);
}

TEST(AdmissionTest, DegenerateThroughputSnapshotsNeverDivideByZero) {
  // First-arrival regression: before any run completes the runtime's EWMAs
  // are unseeded, so the snapshot can carry est_run_s = 0 and a
  // sustainable_qps of 0 or +inf. The wait bound must degrade to "no
  // prediction" (admit on depth alone), never divide by zero or reject on
  // a NaN/inf wait.
  Admission admission(/*max_queue_depth=*/8,
                      /*max_queue_wait_s=*/0.5,
                      ShedPolicy::kRejectNew);
  for (const double qps :
       {0.0, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    LoadSnapshot load = Load(/*queued=*/4, qps);
    load.est_run_s = 0.0;
    load.ewma_service_rate_qps = 0.0;
    const AdmissionDecision decision = admission.Decide(Q(1, 0.0), load, {});
    EXPECT_EQ(decision.action, AdmissionDecision::Action::kAdmit)
        << "sustainable_qps=" << qps << ": " << decision.reason;
  }
  // The depth bound still applies without a throughput estimate.
  EXPECT_EQ(admission.Decide(Q(1, 0.0), Load(8, 0.0), {Q(2, 0.0)}).action,
            AdmissionDecision::Action::kReject);
}

SchedQuery TenantQ(uint64_t id, int32_t tenant) {
  SchedQuery q = Q(id, 0.0);
  q.tenant = tenant;
  return q;
}

LoadSnapshot LoadAt(double now_s, int32_t queued = 0) {
  LoadSnapshot load = Load(queued, 10.0);
  load.now_s = now_s;
  return load;
}

TenantQuota Quota(int32_t tenant, double rate_qps, double burst,
                  double max_queue_share = 0.0) {
  TenantQuota quota;
  quota.tenant = tenant;
  quota.rate_qps = rate_qps;
  quota.burst = burst;
  quota.max_queue_share = max_queue_share;
  return quota;
}

TEST(QuotaTest, DepthBoundRejectSpendsNoToken) {
  Admission admission(/*max_queue_depth=*/1, /*max_queue_wait_s=*/-1.0,
                      ShedPolicy::kRejectNew, {Quota(5, 1.0, /*burst=*/2.0)});
  // The quota passes, then the full queue rejects: no token is spent.
  const AdmissionDecision full =
      admission.Decide(TenantQ(1, 5), LoadAt(0.0, /*queued=*/1), {});
  EXPECT_EQ(full.action, AdmissionDecision::Action::kReject);
  EXPECT_NE(full.reason.find("depth"), std::string::npos);
  // Both tokens are still there for admitted arrivals at the same instant.
  EXPECT_EQ(admission.Decide(TenantQ(2, 5), LoadAt(0.0), {}).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(admission.Decide(TenantQ(3, 5), LoadAt(0.0), {}).action,
            AdmissionDecision::Action::kAdmit);
  const AdmissionDecision empty =
      admission.Decide(TenantQ(4, 5), LoadAt(0.0), {});
  EXPECT_EQ(empty.action, AdmissionDecision::Action::kReject);
  EXPECT_NE(empty.reason.find("quota"), std::string::npos);
}

TEST(QuotaTest, QueueShareRejectKeepsTheTokens) {
  Admission admission(/*max_queue_depth=*/0, /*max_queue_wait_s=*/-1.0,
                      ShedPolicy::kRejectNew,
                      {Quota(5, 1.0, /*burst=*/1.0, /*max_queue_share=*/0.5)});
  // Tenant 5 already holds both queue entries: with the arrival it would
  // hold 3 of 3 against ceil(0.5 x 3) = 2 allowed.
  const std::vector<SchedQuery> queue{TenantQ(1, 5), TenantQ(2, 5)};
  const AdmissionDecision share =
      admission.Decide(TenantQ(3, 5), LoadAt(0.0, 2), queue);
  EXPECT_EQ(share.action, AdmissionDecision::Action::kReject);
  EXPECT_NE(share.reason.find("queue share"), std::string::npos);
  // The one token survived the share reject.
  EXPECT_EQ(admission.Decide(TenantQ(4, 5), LoadAt(0.0), {}).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(admission.Decide(TenantQ(5, 5), LoadAt(0.0), {}).action,
            AdmissionDecision::Action::kReject);
}

TEST(QuotaTest, UnlistedTenantSkipsTheQuota) {
  Admission admission(/*max_queue_depth=*/2, /*max_queue_wait_s=*/-1.0,
                      ShedPolicy::kRejectNew, {Quota(5, 1.0, /*burst=*/1.0)});
  EXPECT_EQ(admission.Decide(TenantQ(1, 5), LoadAt(0.0), {}).action,
            AdmissionDecision::Action::kAdmit);
  EXPECT_EQ(admission.Decide(TenantQ(2, 5), LoadAt(0.0), {}).action,
            AdmissionDecision::Action::kReject);
  // Tenant 6 carries no quota: only the bounds apply to it.
  for (uint64_t id = 3; id < 10; ++id) {
    EXPECT_EQ(admission.Decide(TenantQ(id, 6), LoadAt(0.0), {}).action,
              AdmissionDecision::Action::kAdmit);
  }
  const AdmissionDecision full =
      admission.Decide(TenantQ(10, 6), LoadAt(0.0, /*queued=*/2), {});
  EXPECT_EQ(full.action, AdmissionDecision::Action::kReject);
  EXPECT_NE(full.reason.find("depth"), std::string::npos);
}

TEST(QuotaTest, TokensRefillDeterministicallyWithVirtualTime) {
  auto run = []() {
    Admission admission(/*max_queue_depth=*/0, /*max_queue_wait_s=*/-1.0,
                        ShedPolicy::kRejectNew,
                        {Quota(5, /*rate_qps=*/2.0, /*burst=*/2.0)});
    std::vector<std::string> decisions;
    uint64_t id = 0;
    for (const double now_s : {0.0, 0.0, 0.0, 0.25, 0.5, 0.5, 10.0, 10.0,
                               10.0}) {
      const AdmissionDecision decision =
          admission.Decide(TenantQ(++id, 5), LoadAt(now_s), {});
      decisions.push_back(
          decision.action == AdmissionDecision::Action::kAdmit
              ? "admit"
              : decision.reason);
    }
    return decisions;
  };
  const std::vector<std::string> decisions = run();
  const std::vector<std::string> expected{
      "admit",
      "admit",
      "tenant 5 quota exceeded (2.000 qps, 0.00 tokens)",
      // 0.25s x 2 qps refills half a token: still short.
      "tenant 5 quota exceeded (2.000 qps, 0.50 tokens)",
      // Another 0.25s completes the token.
      "admit",
      "tenant 5 quota exceeded (2.000 qps, 0.00 tokens)",
      // A long gap refills only up to the burst.
      "admit",
      "admit",
      "tenant 5 quota exceeded (2.000 qps, 0.00 tokens)",
  };
  EXPECT_EQ(decisions, expected);
  EXPECT_EQ(run(), decisions);
}

PrewarmSnapshot Warm(double rate_qps, double est_run_s, int32_t workers,
                     int32_t warm, int32_t in_flight = 0,
                     int32_t pending = 0) {
  PrewarmSnapshot s;
  s.arrival_rate_qps = rate_qps;
  s.est_run_s = est_run_s;
  s.workers_per_run = workers;
  s.warm_instances = warm;
  s.in_flight_runs = in_flight;
  s.pending_prewarms = pending;
  s.est_cost_per_instance = 0.001;
  s.budget_remaining = 1.0;
  return s;
}

TEST(PreWarmPolicyTest, RatePolicyCoversLittlesLawDeficit) {
  auto policy = MakeRatePreWarmPolicy();
  EXPECT_EQ(policy->name(), "rate");
  // 2 qps x 1.5s service = 3 concurrent trees x 4 workers = 12 instances;
  // 5 warm -> 7 to pre-warm.
  EXPECT_EQ(policy->Decide(Warm(2.0, 1.5, 4, 5)).instances, 7);
  // In-flight trees and pending pre-warms count as supply.
  EXPECT_EQ(policy->Decide(Warm(2.0, 1.5, 4, 5, /*in_flight=*/1,
                                /*pending=*/3))
                .instances,
            0);
  // Supply already covers demand: idle, with a reason.
  const PrewarmDecision covered = policy->Decide(Warm(2.0, 1.5, 4, 12));
  EXPECT_EQ(covered.instances, 0);
  EXPECT_FALSE(covered.reason.empty());
}

TEST(PreWarmPolicyTest, RatePolicyIgnoresDegenerateSignals) {
  auto policy = MakeRatePreWarmPolicy();
  // Unseeded rate / run-time estimate, zero-size trees, non-finite rate:
  // no spend, ever — the policy can only act on a measured signal.
  EXPECT_EQ(policy->Decide(Warm(0.0, 1.5, 4, 0)).instances, 0);
  EXPECT_EQ(policy->Decide(Warm(2.0, 0.0, 4, 0)).instances, 0);
  EXPECT_EQ(policy->Decide(Warm(2.0, 1.5, 0, 0)).instances, 0);
  EXPECT_EQ(policy
                ->Decide(Warm(std::numeric_limits<double>::infinity(), 1.5,
                              4, 0))
                .instances,
            0);
}

TEST(PreWarmPolicyTest, RatePolicyRespectsBudget) {
  auto policy = MakeRatePreWarmPolicy();
  PrewarmSnapshot s = Warm(2.0, 1.5, 4, 0);  // deficit 12
  s.est_cost_per_instance = 0.01;
  s.budget_remaining = 0.055;  // affords 5
  EXPECT_EQ(policy->Decide(s).instances, 5);
  s.budget_remaining = 0.001;  // affords none
  const PrewarmDecision broke = policy->Decide(s);
  EXPECT_EQ(broke.instances, 0);
  EXPECT_NE(broke.reason.find("budget"), std::string::npos);
  // No cost estimate: the deficit is uncapped (the runtime re-checks the
  // hard budget per fired instance anyway).
  s.est_cost_per_instance = 0.0;
  EXPECT_EQ(policy->Decide(s).instances, 12);
}

TEST(DispatchGateTest, SlotAccountingIsExact) {
  DispatchGate gate(2);
  EXPECT_TRUE(gate.bounded());
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_FALSE(gate.TryAcquire());
  EXPECT_EQ(gate.in_flight(), 2);
  gate.Release();
  EXPECT_EQ(gate.in_flight(), 1);
  EXPECT_TRUE(gate.TryAcquire());
  EXPECT_FALSE(gate.TryAcquire());

  DispatchGate unbounded(0);
  EXPECT_FALSE(unbounded.bounded());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(unbounded.TryAcquire());
}

TEST(SchedulerNames, PoliciesAndEnumsAreNamed) {
  EXPECT_EQ(ShedPolicyName(ShedPolicy::kShedLowestPriority),
            "shed-lowest-priority");
  EXPECT_EQ(QueueDisciplineName(QueueDiscipline::kEdf), "edf");
  EXPECT_EQ(QueryDispositionName(QueryDisposition::kRejected), "rejected");
  EXPECT_EQ(QueryDispositionName(QueryDisposition::kShed), "shed");
}

}  // namespace
}  // namespace fsd::core
