#include <gtest/gtest.h>

#include <algorithm>

#include "core/auto_config.h"
#include "core/runtime.h"
#include "model/input_gen.h"

namespace fsd::core {
namespace {

model::SparseDnn MakeModel(int32_t neurons, int32_t layers) {
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = layers;
  return *model::GenerateSparseDnn(config);
}

class AutoConfigTest : public ::testing::Test {
 protected:
  sim::Simulation sim_;
  cloud::CloudEnv cloud_{&sim_};
};

TEST_F(AutoConfigTest, SmallModelCostPriorityPicksSerial) {
  model::SparseDnn dnn = MakeModel(1024, 8);
  AutoSelectRequest request;
  request.dnn = &dnn;
  request.batch = 64;
  request.latency_weight = 0.0;  // pure cost
  auto result = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->best.variant, Variant::kSerial);
  EXPECT_EQ(result->best.workers, 1);
}

TEST_F(AutoConfigTest, LatencyPriorityBuysParallelism) {
  model::SparseDnn dnn = MakeModel(16384, 16);
  AutoSelectRequest request;
  request.dnn = &dnn;
  request.batch = 2048;  // heavy batch: compute dominates
  request.latency_weight = 1.0;
  auto result = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->best.workers, 1);
}

TEST_F(AutoConfigTest, RankingIsSortedAndComplete) {
  model::SparseDnn dnn = MakeModel(4096, 8);
  AutoSelectRequest request;
  request.dnn = &dnn;
  auto result = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(result.ok());
  // 1 serial + 4 variants x 4 parallel P values.
  EXPECT_EQ(result->ranking.size(), 17u);
  for (size_t i = 1; i < result->ranking.size(); ++i) {
    EXPECT_LE(result->ranking[i - 1].score, result->ranking[i].score);
  }
  EXPECT_EQ(result->best.score, result->ranking.front().score);
}

TEST_F(AutoConfigTest, InfeasibleSerialIsExcluded) {
  // A model family whose paper-scale working set exceeds the FaaS cap:
  // use a big batch so activations blow the 10 GB budget.
  model::SparseDnn dnn = MakeModel(65536, 4);
  AutoSelectRequest request;
  request.dnn = &dnn;
  request.batch = 20000;  // 65536 x 20000 x 8 x 2 bytes ~ 19.5 GB
  auto result = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->best.variant, Variant::kSerial);
  bool found_infeasible_serial = false;
  for (const ConfigCandidate& c : result->ranking) {
    if (c.variant == Variant::kSerial) {
      EXPECT_FALSE(c.feasible);
      EXPECT_FALSE(c.infeasible_reason.empty());
      found_infeasible_serial = true;
    }
  }
  EXPECT_TRUE(found_infeasible_serial);
}

TEST_F(AutoConfigTest, CostCrossoverBetweenQueueAndObject) {
  // §IV-C both ways: queue costs grow much more slowly with parallelism at
  // moderate data volumes, but once volumes saturate the pub-sub payload
  // economics (per-byte delivery charges), object storage wins.
  model::SparseDnn dnn = MakeModel(16384, 16);
  AutoSelectRequest request;
  request.dnn = &dnn;
  request.latency_weight = 0.0;
  request.candidate_workers = {42};

  request.batch = 2000;  // moderate volume: queue is the cheap channel
  auto moderate = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(moderate.ok());
  ASSERT_EQ(moderate->ranking.size(), 4u);
  EXPECT_EQ(moderate->best.variant, Variant::kQueue);

  request.batch = 40000;  // huge volume: per-byte charges flip the choice
  auto huge = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(huge->best.variant, Variant::kObject);
}

TEST_F(AutoConfigTest, LatencyWeightedWorkloadPicksDirect) {
  // Established NAT-punched links carry sub-millisecond sends with no
  // managed-service hop, so a pure-latency priority must surface the
  // direct channel for a chatty parallel workload.
  model::SparseDnn dnn = MakeModel(16384, 16);
  AutoSelectRequest request;
  request.dnn = &dnn;
  request.batch = 2048;
  request.latency_weight = 1.0;
  // Parallel candidates only: the point is the channel choice, and the
  // model fits a single instance, which would otherwise win pure cost.
  request.candidate_workers = {8, 20, 42, 62};
  auto result = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->best.variant, Variant::kDirect);
  EXPECT_GT(result->best.workers, 1);

  // A moderate-volume chatty workload at large P under pure cost priority
  // picks the queue channel instead: the direct variant's connection
  // setup charges (one per communicating pair, so quadratic in P) plus
  // the relay's standing node cost hand the win back to request-priced
  // pub-sub + queues.
  request.batch = 2000;
  request.candidate_workers = {42};
  request.latency_weight = 0.0;
  auto cheapest = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(cheapest.ok());
  EXPECT_EQ(cheapest->best.variant, Variant::kQueue);
}

TEST_F(AutoConfigTest, DirectConnectionFeeMatchesWhatARunBills) {
  // The fabric bills one connection per communicating unordered pair, so
  // the Direct candidate's connection term must land near what a run of
  // that configuration bills. Pricing every other Direct term at zero
  // leaves the connection fee as the candidate's whole communication cost.
  const model::SparseDnn dnn = MakeModel(1024, 8);
  model::InputConfig input_config;
  input_config.neurons = 1024;
  input_config.batch = 32;
  auto input = model::GenerateInputBatch(input_config);
  ASSERT_TRUE(input.ok()) << input.status().ToString();
  cloud::CloudConfig fees_only;
  fees_only.pricing.p2p_per_byte = 0.0;
  fees_only.pricing.kv_per_request = 0.0;
  fees_only.pricing.kv_per_processed_byte = 0.0;
  fees_only.pricing.kv_node_hourly = 0.0;
  const double per_connection = fees_only.pricing.p2p_per_connection;
  for (const int32_t workers : {2, 4, 8}) {
    auto partition = part::PartitionModel(dnn, workers, {});
    ASSERT_TRUE(partition.ok()) << partition.status().ToString();
    sim::Simulation run_sim;
    cloud::CloudEnv run_cloud(&run_sim);
    InferenceRequest run;
    run.dnn = &dnn;
    run.partition = &*partition;
    run.batches = {&*input};
    run.options.variant = Variant::kDirect;
    run.options.num_workers = workers;
    auto report = RunInference(&run_cloud, run);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->status.ok()) << report->status.ToString();
    const double billed =
        report->billing.quantity(cloud::BillingDimension::kP2pConnection) *
        per_connection;
    ASSERT_GT(billed, 0.0) << "P=" << workers;

    sim::Simulation price_sim;
    cloud::CloudEnv priced(&price_sim, fees_only);
    AutoSelectRequest request;
    request.dnn = &dnn;
    request.batch = input_config.batch;
    request.candidate_workers = {workers};
    auto result = AutoSelectConfiguration(priced, request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const auto direct =
        std::find_if(result->ranking.begin(), result->ranking.end(),
                     [](const ConfigCandidate& c) {
                       return c.variant == Variant::kDirect;
                     });
    ASSERT_NE(direct, result->ranking.end());
    EXPECT_NEAR(direct->predicted_cost.communication, billed, 0.1 * billed)
        << "P=" << workers << ": predicted "
        << direct->predicted_cost.communication / per_connection
        << " connections, billed " << billed / per_connection;
  }
}

TEST_F(AutoConfigTest, TopologyRecommendationTracksRootDrain) {
  // Through-root's single round is optimal while the root's pop machinery
  // drains the whole fan-in in ~one op; once the fan-in serializes on
  // per-message requests, the binomial tree's bounded rounds win.
  FsdOptions options;
  const cloud::LatencyConfig& latency = cloud_.latency();
  EXPECT_EQ(RecommendTopology(latency, options, Variant::kQueue, 2),
            CollectiveTopology::kThroughRoot);
  EXPECT_EQ(RecommendTopology(latency, options, Variant::kSerial, 62),
            CollectiveTopology::kThroughRoot);
  // KV/direct pops drain 64 values per op: through-root stays one op wide.
  EXPECT_EQ(RecommendTopology(latency, options, Variant::kKv, 42),
            CollectiveTopology::kThroughRoot);
  // Queue polls batch 10 messages; object storage pays one GET per
  // message: at P = 42 the root's round is several ops wide and the tree
  // takes over.
  EXPECT_EQ(RecommendTopology(latency, options, Variant::kQueue, 42),
            CollectiveTopology::kBinomialTree);
  EXPECT_EQ(RecommendTopology(latency, options, Variant::kObject, 42),
            CollectiveTopology::kBinomialTree);
  // Every parallel ranking entry carries its recommended topology.
  model::SparseDnn dnn = MakeModel(4096, 8);
  AutoSelectRequest request;
  request.dnn = &dnn;
  auto result = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(result.ok());
  for (const ConfigCandidate& c : result->ranking) {
    EXPECT_EQ(c.topology,
              RecommendTopology(latency, request.base_options, c.variant,
                                c.workers));
  }
}

TEST_F(AutoConfigTest, QuantFlipRespectsErrorBudgetAndBreakEven) {
  model::SparseDnn dnn = MakeModel(16384, 16);
  AutoSelectRequest request;
  request.dnn = &dnn;
  request.batch = 2048;  // byte-heavy workload: savings dominate
  request.latency_weight = 0.0;
  request.base_options.compress = true;

  // No error budget: every candidate stays lossless.
  auto strict = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(strict.ok());
  for (const ConfigCandidate& c : strict->ranking) {
    EXPECT_EQ(c.quant_bits, 0);
  }

  // A 1e-2 budget admits b=8 (bound ~3.9e-3) but not b=4 (~7.1e-2); the
  // byte-metered variants should flip and get cheaper for it.
  request.base_options.quant_max_rel_error = 1e-2;
  auto relaxed = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(relaxed.ok());
  bool any_quantized = false;
  for (size_t i = 0; i < relaxed->ranking.size(); ++i) {
    const ConfigCandidate& c = relaxed->ranking[i];
    EXPECT_TRUE(c.quant_bits == 0 || c.quant_bits == 8);
    if (c.quant_bits != 0) {
      any_quantized = true;
      // Object/serial bill per request, never per byte — no flip there.
      EXPECT_NE(c.variant, Variant::kObject);
      EXPECT_NE(c.variant, Variant::kSerial);
    }
  }
  EXPECT_TRUE(any_quantized);
  // Quantization can only help the blended objective.
  EXPECT_LE(relaxed->best.predicted_cost.total,
            strict->best.predicted_cost.total + 1e-12);

  // A budget looser than even b=4's bound picks the narrowest width.
  request.base_options.quant_max_rel_error = 0.5;
  auto loose = AutoSelectConfiguration(cloud_, request);
  ASSERT_TRUE(loose.ok());
  bool any_b4 = false;
  for (const ConfigCandidate& c : loose->ranking) {
    if (c.quant_bits == 4) any_b4 = true;
    EXPECT_TRUE(c.quant_bits == 0 || c.quant_bits == 4);
  }
  EXPECT_TRUE(any_b4);
}

TEST_F(AutoConfigTest, ValidatesArguments) {
  model::SparseDnn dnn = MakeModel(1024, 4);
  AutoSelectRequest request;
  EXPECT_FALSE(AutoSelectConfiguration(cloud_, request).ok());
  request.dnn = &dnn;
  request.latency_weight = 2.0;
  EXPECT_FALSE(AutoSelectConfiguration(cloud_, request).ok());
  request.latency_weight = 0.5;
  request.candidate_workers.clear();
  EXPECT_FALSE(AutoSelectConfiguration(cloud_, request).ok());
}

}  // namespace
}  // namespace fsd::core
