// Cross-query batching tests: concurrent same-family queries coalesced
// into shared worker trees must produce byte-identical per-query outputs
// vs unbatched serving (batch_window_s = 0) on every channel backend,
// attribute metrics and cost per member exactly, and keep abort/quiescence
// guarantees under mid-workload kills.
#include <gtest/gtest.h>

#include <numeric>

#include "cloud/cloud.h"
#include "core/serving.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

struct Family {
  model::SparseDnn dnn;
  part::ModelPartition partition;
  /// Distinct inputs (one per query) with their own ground truths, so a
  /// misrouted output slice can never pass by accident.
  std::vector<linalg::ActivationMap> inputs;
  std::vector<linalg::ActivationMap> expected;
};

Family MakeFamily(int32_t queries, int32_t neurons = 256, int32_t layers = 8,
                  int32_t batch = 16, int32_t workers = 4,
                  uint64_t seed = 7) {
  Family f;
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = layers;
  config.seed = seed;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok()) << dnn.status().ToString();
  f.dnn = std::move(*dnn);

  part::ModelPartitionOptions po;
  auto partition = part::PartitionModel(f.dnn, workers, po);
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  f.partition = std::move(*partition);

  for (int32_t q = 0; q < queries; ++q) {
    model::InputConfig input_config;
    input_config.neurons = neurons;
    input_config.batch = batch;
    input_config.seed = seed + 100 + static_cast<uint64_t>(q);
    auto input = model::GenerateInputBatch(input_config);
    EXPECT_TRUE(input.ok()) << input.status().ToString();
    f.inputs.push_back(std::move(*input));
  }
  for (const auto& input : f.inputs) {
    auto expected = model::ReferenceInference(f.dnn, input);
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    f.expected.push_back(std::move(*expected));
  }
  return f;
}

InferenceRequest MakeRequest(const Family& f, int32_t query, Variant variant) {
  InferenceRequest request;
  request.dnn = &f.dnn;
  request.partition = &f.partition;
  request.batches = {&f.inputs[static_cast<size_t>(query)]};
  request.options.variant = variant;
  request.options.num_workers = f.partition.num_parts;
  return request;
}

Result<ServingReport> ServeAll(const Family& f, Variant variant,
                               const std::vector<double>& arrivals,
                               const ServingOptions& options) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud, options);
  for (size_t q = 0; q < arrivals.size(); ++q) {
    auto id = serving.Submit(MakeRequest(f, static_cast<int32_t>(q), variant),
                             arrivals[q]);
    if (!id.ok()) return id.status();
  }
  return serving.Drain();
}

TEST(QueryBatching, BatchedOutputsByteIdenticalToUnbatchedPerBackend) {
  constexpr int kQueries = 5;
  Family f = MakeFamily(kQueries);
  // Everything in flight at once: the batching sweet spot.
  const std::vector<double> arrivals(kQueries, 0.0);
  for (Variant variant : {Variant::kQueue, Variant::kObject, Variant::kKv}) {
    SCOPED_TRACE(std::string(VariantName(variant)));

    ServingOptions unbatched;  // batch_window_s = 0: the ablation baseline
    auto base = ServeAll(f, variant, arrivals, unbatched);
    ASSERT_TRUE(base.ok()) << base.status().ToString();

    ServingOptions batched;
    batched.batch_window_s = 0.05;
    batched.max_batch_queries = kQueries;
    auto coalesced = ServeAll(f, variant, arrivals, batched);
    ASSERT_TRUE(coalesced.ok()) << coalesced.status().ToString();

    ASSERT_EQ(base->queries.size(), static_cast<size_t>(kQueries));
    ASSERT_EQ(coalesced->queries.size(), static_cast<size_t>(kQueries));
    for (int q = 0; q < kQueries; ++q) {
      const QueryOutcome& b = base->queries[q];
      const QueryOutcome& c = coalesced->queries[q];
      ASSERT_TRUE(b.report.status.ok()) << b.report.status.ToString();
      ASSERT_TRUE(c.report.status.ok()) << c.report.status.ToString();
      // Byte-identical per-query activations, and each query got ITS OWN
      // result (inputs are distinct per query).
      EXPECT_EQ(c.report.outputs, b.report.outputs) << "query " << q;
      ASSERT_EQ(c.report.outputs.size(), 1u);
      EXPECT_EQ(c.report.outputs[0], f.expected[q]) << "query " << q;
      // Latency runs from the query's own submission: the window wait is
      // part of it, never hidden.
      EXPECT_GE(c.report.latency_s, c.queue_wait_s);
      EXPECT_DOUBLE_EQ(c.report.latency_s, c.finish_s - c.arrival_s);
    }
    // The five queries genuinely shared one tree.
    EXPECT_EQ(coalesced->fleet.runs, 1);
    EXPECT_EQ(coalesced->fleet.batch_occupancy_max, kQueries);
    EXPECT_EQ(coalesced->queries[0].batch_peers, kQueries);
    for (int q = 1; q < kQueries; ++q) {
      EXPECT_EQ(coalesced->queries[q].run_id,
                coalesced->queries[0].run_id);
    }
    // Whereas unbatched ran one tree per query.
    EXPECT_EQ(base->fleet.runs, kQueries);
    EXPECT_EQ(base->fleet.batch_occupancy_max, 1);
    // Amortization: the shared tree paid P worker invocations once.
    EXPECT_EQ(coalesced->fleet.worker_invocations,
              base->fleet.worker_invocations / kQueries);
  }
}

TEST(QueryBatching, MultiBatchQueriesSliceTheRightOutputs) {
  Family f = MakeFamily(3);
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.batch_window_s = 0.05;
  ServingRuntime serving(&cloud, options);

  // Query 0 carries TWO batches, queries 1 and 2 one each: the merged run
  // has four batches and must slice [0,2), [2,3), [3,4) back.
  InferenceRequest two = MakeRequest(f, 0, Variant::kQueue);
  two.batches = {&f.inputs[0], &f.inputs[1]};
  ASSERT_TRUE(serving.Submit(two, 0.0).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(f, 1, Variant::kQueue), 0.0).ok());
  ASSERT_TRUE(serving.Submit(MakeRequest(f, 2, Variant::kQueue), 0.0).ok());

  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->fleet.runs, 1);
  const auto& q0 = report->queries[0];
  ASSERT_TRUE(q0.report.status.ok()) << q0.report.status.ToString();
  ASSERT_EQ(q0.report.outputs.size(), 2u);
  EXPECT_EQ(q0.report.outputs[0], f.expected[0]);
  EXPECT_EQ(q0.report.outputs[1], f.expected[1]);
  for (int q = 1; q <= 2; ++q) {
    const auto& outcome = report->queries[q];
    ASSERT_TRUE(outcome.report.status.ok());
    ASSERT_EQ(outcome.report.outputs.size(), 1u);
    EXPECT_EQ(outcome.report.outputs[0], f.expected[q]) << "query " << q;
  }
}

TEST(QueryBatching, FullBatchFlushesBeforeTheWindow) {
  constexpr int kQueries = 4;
  Family f = MakeFamily(kQueries);
  const std::vector<double> arrivals(kQueries, 0.0);
  ServingOptions options;
  options.batch_window_s = 30.0;  // far longer than the whole workload
  options.max_batch_queries = 2;
  auto report = ServeAll(f, Variant::kQueue, arrivals, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // 4 simultaneous queries at cap 2: two full trees, flushed immediately
  // (no query waited out the 30 s window).
  EXPECT_EQ(report->fleet.runs, 2);
  EXPECT_EQ(report->fleet.batch_occupancy_max, 2);
  for (const QueryOutcome& outcome : report->queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.batch_peers, 2);
    EXPECT_LT(outcome.queue_wait_s, 1.0);
  }
  EXPECT_EQ(report->queries[0].run_id, report->queries[1].run_id);
  EXPECT_EQ(report->queries[2].run_id, report->queries[3].run_id);
  EXPECT_NE(report->queries[0].run_id, report->queries[2].run_id);
}

TEST(QueryBatching, ColumnCapBoundsSharedTrees) {
  constexpr int kQueries = 4;
  Family f = MakeFamily(kQueries);  // 16 columns per query
  const std::vector<double> arrivals(kQueries, 0.0);
  ServingOptions options;
  options.batch_window_s = 0.05;
  options.max_batch_queries = 8;
  options.max_batch_cols = 32;  // two 16-column queries per tree
  auto report = ServeAll(f, Variant::kQueue, arrivals, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fleet.runs, 2);
  EXPECT_EQ(report->fleet.batch_occupancy_max, 2);
  for (int q = 0; q < kQueries; ++q) {
    const QueryOutcome& outcome = report->queries[q];
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.report.outputs[0], f.expected[q]) << "query " << q;
  }
}

TEST(QueryBatching, OptOutAndForeignFamiliesNeverCoalesce) {
  Family f = MakeFamily(3);
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.batch_window_s = 0.05;
  ServingRuntime serving(&cloud, options);

  // Query 0 opts out; queries 1 and 2 differ in an execution-relevant
  // option (num_workers is fixed by the partition, so use the seed).
  InferenceRequest opt_out = MakeRequest(f, 0, Variant::kQueue);
  opt_out.options.cross_query_batching = false;
  InferenceRequest a = MakeRequest(f, 1, Variant::kQueue);
  InferenceRequest b = MakeRequest(f, 2, Variant::kQueue);
  b.options.seed = a.options.seed + 1;
  ASSERT_TRUE(serving.Submit(opt_out, 0.0).ok());
  ASSERT_TRUE(serving.Submit(a, 0.0).ok());
  ASSERT_TRUE(serving.Submit(b, 0.0).ok());

  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->fleet.runs, 3);
  for (int q = 0; q < 3; ++q) {
    const QueryOutcome& outcome = report->queries[q];
    ASSERT_TRUE(outcome.report.status.ok());
    EXPECT_EQ(outcome.batch_peers, 1) << "query " << q;
    EXPECT_EQ(outcome.report.outputs[0], f.expected[q]) << "query " << q;
  }
}

TEST(QueryBatching, OverlappedBatchedServingIsDeterministic) {
  constexpr int kQueries = 6;
  Family f = MakeFamily(kQueries);
  // Staggered arrivals: some land inside an open window (coalesce), some
  // after a tree already launched (overlap with it as their own run/batch).
  const std::vector<double> arrivals =
      PoissonArrivals(/*rate_qps=*/8.0, kQueries, /*seed=*/31);
  ServingOptions options;
  options.batch_window_s = 0.1;
  options.max_batch_queries = 3;

  auto run_once = [&](Variant variant) {
    auto report = ServeAll(f, variant, arrivals, options);
    EXPECT_TRUE(report.ok());
    std::vector<QueryOutputs> outputs;
    for (int q = 0; q < kQueries; ++q) {
      const QueryOutcome& outcome = report->queries[q];
      EXPECT_TRUE(outcome.report.status.ok())
          << outcome.report.status.ToString();
      EXPECT_EQ(outcome.report.outputs[0], f.expected[q]) << "query " << q;
      outputs.push_back(outcome.report.outputs);
    }
    // Trees genuinely coalesced AND overlapped (more than one run, fewer
    // runs than queries).
    EXPECT_GT(report->fleet.runs, 1);
    EXPECT_LT(report->fleet.runs, kQueries);
    return outputs;
  };
  for (Variant variant : {Variant::kQueue, Variant::kObject, Variant::kKv}) {
    SCOPED_TRACE(std::string(VariantName(variant)));
    EXPECT_EQ(run_once(variant), run_once(variant));
  }
}

TEST(QueryBatching, PerQueryAttributionSumsToWholeWorkload) {
  constexpr int kQueries = 4;
  Family f = MakeFamily(kQueries);
  const std::vector<double> arrivals(kQueries, 0.0);
  ServingOptions options;
  options.batch_window_s = 0.05;
  options.max_batch_queries = kQueries;

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingRuntime serving(&cloud, options);
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(serving.Submit(MakeRequest(f, q, Variant::kObject), 0.0).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->fleet.runs, 1);

  // Exact integer attribution: the members' sliced model-read and channel
  // GET counters must sum to the ledger's object GETs exactly (the §VI-F
  // reconciliation, per member).
  int64_t gets = 0;
  double predicted_comm = 0.0;
  double tree_share = 0.0;
  for (const QueryOutcome& outcome : report->queries) {
    ASSERT_TRUE(outcome.report.status.ok());
    gets += outcome.report.metrics.model_get_parts +
            outcome.report.metrics.totals.gets;
    predicted_comm += outcome.report.predicted.communication;
    tree_share += outcome.report.metrics.tree_share;
    EXPECT_LT(outcome.report.metrics.tree_share, 1.0);
  }
  EXPECT_DOUBLE_EQ(
      report->billing.quantity(cloud::BillingDimension::kObjectGet),
      static_cast<double>(gets));
  EXPECT_NEAR(tree_share, 1.0, 1e-12);
  // Summed per-member comm predictions reconcile with the ledger's comm
  // charges (object variant: every op is individually billed and counted).
  EXPECT_NEAR(predicted_comm, report->billing.comm_cost,
              1e-3 * report->billing.comm_cost);
}

TEST(QueryBatching, MalformedRequestsFailAtSubmitOnBothPaths) {
  Family f = MakeFamily(1);
  for (double window : {0.0, 0.1}) {
    SCOPED_TRACE(window);
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingOptions options;
    options.batch_window_s = window;
    ServingRuntime serving(&cloud, options);

    InferenceRequest no_batches = MakeRequest(f, 0, Variant::kQueue);
    no_batches.batches.clear();
    EXPECT_FALSE(serving.Submit(no_batches, 0.0).ok());

    InferenceRequest null_batch = MakeRequest(f, 0, Variant::kQueue);
    null_batch.batches = {nullptr};
    EXPECT_FALSE(serving.Submit(null_batch, 0.0).ok());

    linalg::ActivationMap empty;
    InferenceRequest empty_batch = MakeRequest(f, 0, Variant::kQueue);
    empty_batch.batches = {&empty};
    EXPECT_FALSE(serving.Submit(empty_batch, 0.0).ok());

    EXPECT_EQ(serving.queries_submitted(), 0);
  }
}

TEST(QueryBatching, StopOnFailureAbortsQueriesWaitingInTheWindow) {
  constexpr int32_t kWorkers = 4;
  Family f = MakeFamily(4, 256, 8, 16, kWorkers);
  InferenceRequest poisoned = MakeRequest(f, 0, Variant::kQueue);
  poisoned.options.worker_timeout_s = 0.01;  // fails fast

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.stop_on_failure = true;
  options.batch_window_s = 5.0;
  ServingRuntime serving(&cloud, options);
  // The poisoned query (own family: different timeout) flushes at t=5 and
  // fails within milliseconds; the healthy queries arrive at t=1 so their
  // batch is still waiting out its window (flush at t=6) when the failure
  // aborts the workload — they must abort WITHOUT launching a tree.
  ASSERT_TRUE(serving.Submit(poisoned, 0.0).ok());
  for (int q = 1; q < 4; ++q) {
    ASSERT_TRUE(serving.Submit(MakeRequest(f, q, Variant::kQueue), 1.0).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The poisoned query failed; the healthy ones were still coalescing and
  // abort when their batch flushes — without launching a tree. Everything
  // reaches a terminal state and the simulation fully drains.
  EXPECT_FALSE(report->queries[0].report.status.ok());
  EXPECT_EQ(report->fleet.failed, 4);
  for (const QueryOutcome& outcome : report->queries) {
    EXPECT_GT(outcome.finish_s, 0.0);
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

TEST(QueryBatching, ResumedDrainFlushesWindowsCutOffByTheHorizon) {
  constexpr int kQueries = 3;
  Family f = MakeFamily(kQueries);
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions options;
  options.batch_window_s = 0.5;
  options.run_until = 0.1;  // inside the window: nothing launched yet
  ServingRuntime serving(&cloud, options);
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(serving.Submit(MakeRequest(f, q, Variant::kQueue), 0.0).ok());
  }
  auto cut = serving.Drain();
  ASSERT_TRUE(cut.ok());
  for (const QueryOutcome& outcome : cut->queries) {
    EXPECT_FALSE(outcome.report.status.ok());
  }
  auto resumed = serving.Drain(/*run_until=*/-1.0);
  ASSERT_TRUE(resumed.ok());
  for (int q = 0; q < kQueries; ++q) {
    const QueryOutcome& outcome = resumed->queries[q];
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    EXPECT_EQ(outcome.report.outputs[0], f.expected[q]);
    EXPECT_EQ(outcome.batch_peers, kQueries);
  }
  EXPECT_EQ(sim.live_processes(), 0);
}

}  // namespace
}  // namespace fsd::core
