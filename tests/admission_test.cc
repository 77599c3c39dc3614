// Serving-level scheduler-pipeline tests: admission control, load
// shedding, deadline-driven batch flushing and EDF dispatch exercised
// end-to-end on real worker trees, plus the FleetStats disposition
// partition and SLO-attainment reconciliation. SchedulerPinned replays
// seeded multi-tenant traces and pins a digest of every scheduling
// decision, so a rework of the scheduler stages must reproduce them
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>

#include "cloud/cloud.h"
#include "core/serving.h"
#include "core/trace.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

struct Workload {
  model::SparseDnn dnn;
  part::ModelPartition partition;
  linalg::ActivationMap input;
  linalg::ActivationMap expected;
};

Workload MakeWorkload(int32_t neurons = 256, int32_t layers = 8,
                      int32_t batch = 16, int32_t workers = 4,
                      uint64_t seed = 7) {
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = layers;
  config.seed = seed;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok()) << dnn.status().ToString();

  part::ModelPartitionOptions po;
  auto partition = part::PartitionModel(*dnn, workers, po);
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();

  model::InputConfig input_config;
  input_config.neurons = neurons;
  input_config.batch = batch;
  input_config.seed = seed + 1;
  auto input = model::GenerateInputBatch(input_config);
  EXPECT_TRUE(input.ok()) << input.status().ToString();

  auto expected = model::ReferenceInference(*dnn, *input);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  return Workload{std::move(*dnn), std::move(*partition), std::move(*input),
                  std::move(*expected)};
}

InferenceRequest MakeRequest(const Workload& w, double slo_deadline_s = 0.0,
                             int32_t priority = 0) {
  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &w.partition;
  request.batches = {&w.input};
  request.options.variant = Variant::kQueue;
  request.options.num_workers = w.partition.num_parts;
  request.options.slo_deadline_s = slo_deadline_s;
  request.options.priority = priority;
  return request;
}

/// The FleetStats partition identity plus exact SLO reconciliation against
/// the per-query outcomes — asserted after every workload in this suite.
void CheckFleetReconciles(const ServingReport& report) {
  const FleetStats& fleet = report.fleet;
  int32_t completed = 0, failed = 0, rejected = 0, shed = 0;
  int32_t deadline_queries = 0, deadline_hits = 0;
  for (const QueryOutcome& outcome : report.queries) {
    switch (outcome.disposition) {
      case QueryDisposition::kCompleted:
        ++completed;
        if (std::isfinite(outcome.deadline_s)) {
          ++deadline_queries;
          if (outcome.deadline_met) ++deadline_hits;
          EXPECT_EQ(outcome.deadline_met,
                    outcome.finish_s <= outcome.deadline_s);
        }
        break;
      case QueryDisposition::kRejected:
        ++rejected;
        EXPECT_FALSE(outcome.reject_reason.empty());
        EXPECT_EQ(outcome.run_id, 0u);  // nothing was provisioned
        break;
      case QueryDisposition::kShed:
        ++shed;
        EXPECT_FALSE(outcome.reject_reason.empty());
        break;
      default:
        ++failed;
        break;
    }
  }
  EXPECT_EQ(fleet.queries, static_cast<int32_t>(report.queries.size()));
  EXPECT_EQ(fleet.completed, completed);
  EXPECT_EQ(fleet.failed, failed);
  EXPECT_EQ(fleet.rejected, rejected);
  EXPECT_EQ(fleet.shed, shed);
  EXPECT_EQ(fleet.completed + fleet.failed + fleet.rejected + fleet.shed,
            fleet.queries);
  EXPECT_EQ(fleet.deadline_queries, deadline_queries);
  EXPECT_EQ(fleet.deadline_hits, deadline_hits);
}

TEST(AdmissionServing, OverloadRejectsBeyondQueueDepthDeterministically) {
  Workload w = MakeWorkload();
  auto run_once = [&]() {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingOptions options;
    options.admission_control = true;
    options.max_queue_depth = 2;
    options.max_concurrent_runs = 1;
    ServingRuntime serving(&cloud, options);
    // A simultaneous burst of 6 against 1 tree slot + depth 2: the first
    // occupies the slot, two queue, the rest are rejected with a typed
    // reason.
    for (int q = 0; q < 6; ++q) {
      EXPECT_TRUE(serving.Submit(MakeRequest(w), 0.0).ok());
    }
    auto report = serving.Drain();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };

  ServingReport report = run_once();
  CheckFleetReconciles(report);
  EXPECT_EQ(report.fleet.queries, 6);
  EXPECT_EQ(report.fleet.completed, 3);
  EXPECT_EQ(report.fleet.rejected, 3);
  EXPECT_EQ(report.fleet.failed, 0);
  for (const QueryOutcome& outcome : report.queries) {
    if (outcome.disposition == QueryDisposition::kRejected) {
      EXPECT_TRUE(outcome.report.status.code() ==
                  StatusCode::kResourceExhausted)
          << outcome.report.status.ToString();
      EXPECT_NE(outcome.reject_reason.find("depth"), std::string::npos);
    } else {
      ASSERT_TRUE(outcome.report.status.ok())
          << outcome.report.status.ToString();
      EXPECT_EQ(outcome.report.outputs[0], w.expected);
    }
  }
  // Rejection is deterministic: the same workload rejects the same
  // queries.
  ServingReport again = run_once();
  for (size_t q = 0; q < report.queries.size(); ++q) {
    EXPECT_EQ(report.queries[q].disposition, again.queries[q].disposition);
    EXPECT_EQ(report.queries[q].reject_reason, again.queries[q].reject_reason);
  }
}

TEST(AdmissionServing, ShedLowestPriorityAdmitsOutrankingArrival) {
  Workload w = MakeWorkload();
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.admission_control = true;
  options.max_queue_depth = 1;
  options.max_concurrent_runs = 1;
  options.shed_policy = ShedPolicy::kShedLowestPriority;
  options.queue_discipline = QueueDiscipline::kEdf;
  ServingRuntime serving(&cloud, options);
  // t=0: query 0 takes the slot. t=0.001: query 1 (priority 0) queues,
  // filling the depth bound. t=0.002: query 2 (priority 1) arrives — the
  // queued low-priority query is shed to make room.
  ASSERT_TRUE(serving.Submit(MakeRequest(w), 0.0).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w), 0.001).ok());
  ASSERT_TRUE(
      serving.Submit(MakeRequest(w, /*slo_deadline_s=*/0.0, /*priority=*/1),
                     0.002)
          .ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  EXPECT_EQ(report->queries[0].disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(report->queries[1].disposition, QueryDisposition::kShed);
  EXPECT_NE(report->queries[1].reject_reason.find("priority"),
            std::string::npos);
  EXPECT_EQ(report->queries[2].disposition, QueryDisposition::kCompleted);
  EXPECT_EQ(report->queries[2].report.outputs[0], w.expected);
  EXPECT_EQ(report->fleet.shed, 1);
  EXPECT_EQ(report->fleet.completed, 2);
}

TEST(AdmissionServing, DeadlineSlackFlushesBatchBeforeTheWindow) {
  Workload w = MakeWorkload();
  // A 30s coalescing window would blow any sub-second SLO; the deadline
  // batcher must flush as soon as the oldest member's slack runs out.
  ServingOptions options;
  options.batch_window_s = 30.0;
  options.max_batch_queries = 8;

  auto serve = [&](double slo_deadline_s) {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingRuntime serving(&cloud, options);
    // Warm-up query (opted out of batching so it runs immediately): its
    // completed run seeds the execution-time EWMA the batcher's slack
    // computation refines the coarse a-priori estimate with, and leaves
    // the worker pool warm.
    InferenceRequest warmup = MakeRequest(w);
    warmup.options.cross_query_batching = false;
    EXPECT_TRUE(serving.Submit(warmup, 0.0).ok());
    EXPECT_TRUE(serving.Drain().ok());
    for (int q = 0; q < 2; ++q) {
      EXPECT_TRUE(serving.Submit(MakeRequest(w, slo_deadline_s), 0.5).ok());
    }
    auto report = serving.Drain();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };

  // Without deadlines the pair waits out the full window.
  ServingReport windowed = serve(/*slo_deadline_s=*/0.0);
  CheckFleetReconciles(windowed);
  EXPECT_NEAR(windowed.queries[1].queue_wait_s, 30.0, 0.5);
  // With a 5s SLO the batch flushes when the slack runs out — far before
  // the window — and both members still coalesced into one tree that
  // finished inside the deadline.
  ServingReport slack = serve(/*slo_deadline_s=*/5.0);
  CheckFleetReconciles(slack);
  EXPECT_EQ(slack.fleet.runs, 2);  // warm-up tree + the coalesced pair
  EXPECT_EQ(slack.queries[1].batch_peers, 2);
  EXPECT_LT(slack.queries[1].queue_wait_s, 5.0);
  for (const QueryOutcome& outcome : slack.queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
    EXPECT_TRUE(outcome.deadline_met);
  }
  EXPECT_EQ(slack.fleet.deadline_hits, 2);
  EXPECT_DOUBLE_EQ(slack.fleet.slo_attainment, 1.0);
}

TEST(AdmissionServing, EdfLaunchesParkedRunsByDeadlineNotArrival) {
  Workload w = MakeWorkload();
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.max_concurrent_runs = 1;
  options.queue_discipline = QueueDiscipline::kEdf;
  ServingRuntime serving(&cloud, options);
  // Query 0 occupies the only slot. Queries 1..3 park, FIFO-arriving with
  // ever TIGHTER deadlines: EDF must launch them in reverse arrival order.
  ASSERT_TRUE(serving.Submit(MakeRequest(w), 0.0).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w, /*slo=*/300.0), 0.010).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w, /*slo=*/200.0), 0.011).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w, /*slo=*/100.0), 0.012).ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  ASSERT_EQ(report->fleet.completed, 4);
  // Launch order shows in queue_wait_s: the latest-arriving, tightest-
  // deadline query launched first among the parked three.
  EXPECT_LT(report->queries[3].queue_wait_s, report->queries[2].queue_wait_s);
  EXPECT_LT(report->queries[2].queue_wait_s, report->queries[1].queue_wait_s);
  for (const QueryOutcome& outcome : report->queries) {
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }

  // FIFO control: same workload, arrival order wins.
  sim::Simulation fifo_sim;
  cloud::CloudEnv fifo_cloud(&fifo_sim);
  options.queue_discipline = QueueDiscipline::kFifo;
  ServingRuntime fifo_serving(&fifo_cloud, options);
  ASSERT_TRUE(fifo_serving.Submit(MakeRequest(w), 0.0).ok());
  ASSERT_TRUE(fifo_serving.Submit(MakeRequest(w, 300.0), 0.010).ok());
  ASSERT_TRUE(fifo_serving.Submit(MakeRequest(w, 200.0), 0.011).ok());
  ASSERT_TRUE(fifo_serving.Submit(MakeRequest(w, 100.0), 0.012).ok());
  auto fifo_report = fifo_serving.Drain();
  ASSERT_TRUE(fifo_report.ok());
  EXPECT_LT(fifo_report->queries[1].queue_wait_s,
            fifo_report->queries[2].queue_wait_s);
  EXPECT_LT(fifo_report->queries[2].queue_wait_s,
            fifo_report->queries[3].queue_wait_s);
}

TEST(AdmissionServing, WaitBoundRejectsWhenBacklogOutgrowsThroughput) {
  Workload w = MakeWorkload();
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.admission_control = true;
  options.max_queue_depth = 0;       // no depth bound: wait bound only
  options.max_queue_wait_s = 1e-6;   // nothing with a backlog passes
  options.max_concurrent_runs = 1;
  ServingRuntime serving(&cloud, options);
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(serving.Submit(MakeRequest(w), 0.0).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  // Query 0 takes the slot and query 1 parks — both saw an empty queue, so
  // the wait bound cannot trip. Queries 2 and 3 arrive behind a backlog
  // whose predicted wait dwarfs the microscopic bound: rejected.
  EXPECT_EQ(report->fleet.completed, 2);
  EXPECT_EQ(report->fleet.rejected, 2);
  for (int q = 2; q < 4; ++q) {
    EXPECT_EQ(report->queries[q].disposition, QueryDisposition::kRejected);
    EXPECT_NE(report->queries[q].reject_reason.find("wait"),
              std::string::npos);
  }
}

TEST(AdmissionServing, AdmissionOffRemainsUnconditional) {
  // The explicit ablation: pipeline knobs at their defaults accept every
  // query of an arbitrarily deep burst, and the report carries only
  // kCompleted dispositions.
  Workload w = MakeWorkload();
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud);
  for (int q = 0; q < 6; ++q) {
    ASSERT_TRUE(serving.Submit(MakeRequest(w), 0.0).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  EXPECT_EQ(report->fleet.completed, 6);
  EXPECT_EQ(report->fleet.rejected, 0);
  EXPECT_EQ(report->fleet.shed, 0);
  for (const QueryOutcome& outcome : report->queries) {
    EXPECT_EQ(outcome.disposition, QueryDisposition::kCompleted);
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
}

TEST(AdmissionServing, SheddingInsideOpenBatchShrinksTheFlush) {
  Workload w = MakeWorkload();
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.admission_control = true;
  options.max_queue_depth = 2;
  options.shed_policy = ShedPolicy::kShedLowestPriority;
  options.batch_window_s = 1.0;
  options.max_batch_queries = 8;
  // One slot, occupied by nothing yet — every arrival queues into the
  // coalescing window, so the depth bound bites inside the open batch.
  options.max_concurrent_runs = 1;
  ServingRuntime serving(&cloud, options);
  // Two low-priority queries open a batch and fill the queue; the
  // high-priority arrival sheds one of them mid-window and joins.
  ASSERT_TRUE(serving.Submit(MakeRequest(w, 0.0, /*priority=*/0), 0.0).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w, 0.0, /*priority=*/0), 0.01).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w, 0.0, /*priority=*/1), 0.02).ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  EXPECT_EQ(report->fleet.shed, 1);
  EXPECT_EQ(report->fleet.completed, 2);
  // Priority is scheduling metadata, not part of the coalescing family:
  // the high-priority arrival joined the SAME open batch its victim left,
  // so the two survivors shared one tree; the shed query never launched.
  EXPECT_EQ(report->fleet.runs, 1);
  EXPECT_EQ(report->fleet.batch_occupancy_max, 2);
  const QueryOutcome& shed = report->queries[1];
  EXPECT_EQ(shed.disposition, QueryDisposition::kShed);
  EXPECT_EQ(shed.run_id, 0u);
  for (const QueryOutcome& outcome : report->queries) {
    if (outcome.disposition != QueryDisposition::kCompleted) continue;
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(AdmissionServing, LateJoinerWithTightDeadlineTightensTheFlush) {
  // A deadline-free query opens a 30s window; a second query joins
  // mid-window carrying a tight SLO. The batcher must pull the flush
  // forward to the joiner's slack — the pair still coalesces (deadlines
  // are scheduling metadata, not part of the family) and both finish
  // inside the joiner's deadline window.
  Workload w = MakeWorkload();
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.batch_window_s = 30.0;
  options.max_batch_queries = 8;
  ServingRuntime serving(&cloud, options);
  // Warm-up to seed the execution-time EWMA (as a deployed fleet has).
  InferenceRequest warmup = MakeRequest(w);
  warmup.options.cross_query_batching = false;
  ASSERT_TRUE(serving.Submit(warmup, 0.0).ok());
  ASSERT_TRUE(serving.Drain().ok());

  ASSERT_TRUE(serving.Submit(MakeRequest(w), 0.1).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(w, /*slo_deadline_s=*/8.0), 1.1).ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  ASSERT_EQ(report->fleet.completed, 3);
  // One coalesced tree for the pair (plus the warm-up's own).
  EXPECT_EQ(report->fleet.runs, 2);
  EXPECT_EQ(report->queries[1].batch_peers, 2);
  EXPECT_EQ(report->queries[1].run_id, report->queries[2].run_id);
  // The opener did NOT wait out its 30s window: the joiner's slack pulled
  // the flush forward, and the joiner met its deadline.
  EXPECT_LT(report->queries[1].queue_wait_s, 9.0);
  EXPECT_TRUE(report->queries[2].deadline_met);
  EXPECT_EQ(report->fleet.deadline_hits, 1);
  EXPECT_EQ(sim.live_processes(), 0);
}

// --- pinned scheduler decisions ---

/// FNV-1a, length-prefixing every field so adjacent fields never alias.
class Digest {
 public:
  void Add(std::string_view bytes) {
    AddWord(bytes.size());
    for (const char c : bytes) Mix(static_cast<unsigned char>(c));
  }
  void AddWord(uint64_t word) {
    for (size_t i = 0; i < sizeof(word); ++i) Mix((word >> (8 * i)) & 0xff);
  }
  void AddDouble(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    AddWord(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(uint64_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ull; }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Every scheduling decision of a replay: each query's disposition, reason,
/// serving tree, batch size and timing bits, plus the fleet summary. Query
/// and run ids come from a process-wide counter, so they are taken
/// relative to the replay's first query id.
uint64_t SchedulerDigest(const ServingReport& report) {
  Digest d;
  const uint64_t base =
      report.queries.empty() ? 0 : report.queries.front().query_id;
  d.AddWord(report.queries.size());
  for (const QueryOutcome& outcome : report.queries) {
    d.AddWord(outcome.query_id - base);
    d.AddWord(static_cast<uint64_t>(outcome.disposition));
    d.Add(outcome.reject_reason);
    d.AddWord(outcome.run_id == 0 ? 0 : outcome.run_id - base);
    d.AddWord(static_cast<uint64_t>(outcome.batch_peers));
    d.AddDouble(outcome.arrival_s);
    d.AddDouble(outcome.finish_s);
    d.AddDouble(outcome.queue_wait_s);
  }
  d.Add(report.fleet.Summary());
  return d.value();
}

/// Three tenants over a diurnal base rate with a flash crowd: gold (tight
/// SLO, top class), silver (looser SLO, rate quota) and bronze (no SLO,
/// tight rate quota).
WorkloadTrace PinnedTrace() {
  TraceConfig config;
  config.duration_s = 12.0;
  config.base_rate_qps = 8.0;
  config.diurnal_amplitude = 0.3;
  config.diurnal_period_s = 12.0;
  config.flash_crowds = {FlashCrowd{4.0, 2.0, 5.0}};
  config.seed = 11;
  TenantSpec gold;
  gold.tenant = 1;
  gold.name = "gold";
  gold.qps_share = 2.0;
  gold.priority = 2;
  gold.slo_deadline_s = 3.0;
  TenantSpec silver;
  silver.tenant = 2;
  silver.name = "silver";
  silver.qps_share = 2.0;
  silver.priority = 1;
  silver.slo_deadline_s = 6.0;
  silver.quota_qps = 3.0;
  silver.quota_burst = 4.0;
  TenantSpec bronze;
  bronze.tenant = 3;
  bronze.name = "bronze";
  bronze.qps_share = 1.0;
  bronze.quota_qps = 1.0;
  config.tenants = {gold, silver, bronze};
  auto trace = GenerateTrace(config);
  EXPECT_TRUE(trace.ok()) << trace.status().ToString();
  return std::move(*trace);
}

ServingReport ReplayPinned(const WorkloadTrace& trace,
                           const ServingOptions& options) {
  Workload w = MakeWorkload(/*neurons=*/64, /*layers=*/2, /*batch=*/4,
                            /*workers=*/2);
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud, options);
  auto report = ReplayTrace(serving, trace, MakeRequest(w));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  CheckFleetReconciles(*report);
  return std::move(*report);
}

ServingOptions PinnedOptions(const WorkloadTrace& trace) {
  ServingOptions options;
  options.batch_window_s = 0.05;
  options.max_batch_queries = 4;
  options.max_concurrent_runs = 2;
  options.tenant_quotas = TraceTenantQuotas(trace.config);
  return options;
}

TEST(SchedulerPinned, ShedLowestPriorityEdfWithQuotas) {
  const WorkloadTrace trace = PinnedTrace();
  ServingOptions options = PinnedOptions(trace);
  options.admission_control = true;
  options.max_queue_depth = 6;
  options.shed_policy = ShedPolicy::kShedLowestPriority;
  options.queue_discipline = QueueDiscipline::kEdf;
  // Silver may also hold at most half the backlog.
  options.tenant_quotas[0].max_queue_share = 0.5;
  const ServingReport report = ReplayPinned(trace, options);
  EXPECT_GT(report.fleet.shed, 0);
  EXPECT_GT(report.fleet.rejected, 0);
  EXPECT_EQ(SchedulerDigest(report), 0xe96a89a148e201adull)
      << "0x" << std::hex << SchedulerDigest(report);
}

TEST(SchedulerPinned, RejectNewFifoWithWaitBound) {
  const WorkloadTrace trace = PinnedTrace();
  ServingOptions options = PinnedOptions(trace);
  options.admission_control = true;
  options.max_queue_depth = 16;
  options.max_queue_wait_s = 1.0;
  options.shed_policy = ShedPolicy::kRejectNew;
  options.queue_discipline = QueueDiscipline::kFifo;
  const ServingReport report = ReplayPinned(trace, options);
  EXPECT_EQ(report.fleet.shed, 0);
  EXPECT_GT(report.fleet.rejected, 0);
  EXPECT_EQ(SchedulerDigest(report), 0x10e96672ef9c4f09ull)
      << "0x" << std::hex << SchedulerDigest(report);
}

TEST(SchedulerPinned, QuotasWithAdmissionControlOff) {
  const WorkloadTrace trace = PinnedTrace();
  ServingOptions options = PinnedOptions(trace);
  // Bounds set but admission control off: only the quotas may reject.
  options.admission_control = false;
  options.max_queue_depth = 2;
  options.max_queue_wait_s = 0.0;
  options.max_concurrent_runs = 1;
  const ServingReport report = ReplayPinned(trace, options);
  EXPECT_EQ(report.fleet.shed, 0);
  EXPECT_GT(report.fleet.rejected, 0);
  for (const QueryOutcome& outcome : report.queries) {
    if (outcome.disposition != QueryDisposition::kRejected) continue;
    EXPECT_NE(outcome.reject_reason.find("quota"), std::string::npos)
        << outcome.reject_reason;
  }
  EXPECT_EQ(SchedulerDigest(report), 0xd6800b6a5a8a4f20ull)
      << "0x" << std::hex << SchedulerDigest(report);
}

}  // namespace
}  // namespace fsd::core
