#include <gtest/gtest.h>

#include "core/cost_model.h"

namespace fsd::core {
namespace {

cloud::PricingConfig Pricing() { return cloud::PricingConfig{}; }

TEST(CostModel, FaasCostEquation4) {
  // C_lambda = P*C_inv + P*Tbar*M*C_run, hand-computed.
  const cloud::PricingConfig pricing = Pricing();
  const double cost = FaasCost(pricing, 20, 30.0, 2000);
  const double expect = 20 * pricing.faas_per_invocation +
                        20 * 30.0 * 2000 * pricing.faas_per_mb_second;
  EXPECT_DOUBLE_EQ(cost, expect);
  // Paper magnitude check: 20 workers x 2 GB x 30 s ~= $0.02.
  EXPECT_NEAR(cost, 0.020, 0.005);
}

TEST(CostModel, QueueCostEquations5And6) {
  const cloud::PricingConfig pricing = Pricing();
  const CostBreakdown cost =
      QueueCost(pricing, 8, 10.0, 1000, /*chunks=*/5000,
                /*bytes=*/2.0e9, /*api=*/40000);
  EXPECT_DOUBLE_EQ(cost.communication,
                   5000 * pricing.pubsub_per_publish_chunk +
                       2.0e9 * pricing.pubsub_per_byte +
                       40000 * pricing.queue_per_api_call);
  EXPECT_DOUBLE_EQ(cost.total, cost.compute + cost.communication);
}

TEST(CostModel, ObjectCostEquation7) {
  const cloud::PricingConfig pricing = Pricing();
  const CostBreakdown cost = ObjectCost(pricing, 8, 10.0, 1000,
                                        /*puts=*/10000, /*gets=*/9000,
                                        /*lists=*/3000);
  EXPECT_DOUBLE_EQ(cost.communication, 10000 * pricing.object_per_put +
                                           9000 * pricing.object_per_get +
                                           3000 * pricing.object_per_list);
}

TEST(CostModel, SerialCostIsComputeOnly) {
  const CostBreakdown cost = SerialCost(Pricing(), 20.0, 10240);
  EXPECT_DOUBLE_EQ(cost.communication, 0.0);
  EXPECT_DOUBLE_EQ(cost.total, cost.compute);
}

TEST(CostModel, ApiPriceRelationshipsFromThePaper) {
  // §IV-C: pub-sub/queueing API calls are ~1 OOM cheaper than object
  // storage PUT/LIST requests.
  const cloud::PricingConfig pricing = Pricing();
  EXPECT_LT(pricing.pubsub_per_publish_chunk * 8,
            pricing.object_per_put);
  EXPECT_LT(pricing.queue_per_api_call * 8, pricing.object_per_list);
  // GETs are the cheap object operation.
  EXPECT_LT(pricing.object_per_get, pricing.object_per_put);
}

TEST(CostModel, PredictFromMetricsMatchesManualComputation) {
  FsdOptions options;
  options.variant = Variant::kQueue;
  options.num_workers = 4;
  RunMetrics metrics;
  metrics.workers.resize(4);
  for (auto& w : metrics.workers) {
    w.start_time = 0.0;
    w.end_time = 12.0;
    LayerMetrics& lm = w.Layer(0);
    lm.publish_chunks = 100;
    // 1 MiB of payload in 10 chunks, each billed with a 96-byte envelope.
    lm.send_billed_bytes = (1 << 20) + 10 * 96;
    lm.polls = 50;
    lm.deletes = 25;
  }
  metrics.Finalize();
  const CostBreakdown predicted =
      PredictFromMetrics(Pricing(), options, metrics, 1500);
  const CostBreakdown manual = QueueCost(
      Pricing(), 4, 12.0, 1500, 400,
      4.0 * ((1 << 20) + 10 * 96.0), 4 * 75.0);
  EXPECT_NEAR(predicted.total, manual.total, 1e-12);
}

TEST(CostModel, KvCostTerms) {
  const cloud::PricingConfig pricing = Pricing();
  const CostBreakdown cost =
      KvCost(pricing, 8, 10.0, 1000, /*requests=*/50000,
             /*processed_bytes=*/3.0e9, /*node_seconds=*/7200.0);
  EXPECT_DOUBLE_EQ(cost.communication,
                   50000 * pricing.kv_per_request +
                       3.0e9 * pricing.kv_per_processed_byte +
                       7200.0 * pricing.kv_node_hourly / 3600.0);
  EXPECT_DOUBLE_EQ(cost.total, cost.compute + cost.communication);
  // The design claim the variant selection rests on: KV requests are the
  // cheapest per call, but its per-byte metering dwarfs the pub-sub
  // delivery charge, and the node term has no queue/object analogue.
  EXPECT_LT(pricing.kv_per_request, pricing.queue_per_api_call);
  EXPECT_GT(pricing.kv_per_processed_byte, pricing.pubsub_per_byte);
}

TEST(CostModel, DirectCostTerms) {
  const cloud::PricingConfig pricing = Pricing();
  const CostBreakdown cost =
      DirectCost(pricing, 8, 10.0, 1000, /*connections=*/56.0,
                 /*direct_bytes=*/2.0e9, /*relay_requests=*/400.0,
                 /*relay_processed_bytes=*/1.0e8);
  EXPECT_DOUBLE_EQ(cost.communication,
                   56.0 * pricing.p2p_per_connection +
                       2.0e9 * pricing.p2p_per_byte +
                       400.0 * pricing.kv_per_request +
                       1.0e8 * pricing.kv_per_processed_byte);
  EXPECT_DOUBLE_EQ(cost.total, cost.compute + cost.communication);
  // The pricing relationships the direct channel's pitch rests on: moving
  // a byte over a punched link undercuts KV's processed-byte metering by
  // a wide margin, while the connection charge is a real standing fee that
  // must amortize over the run (it dwarfs a single KV request).
  EXPECT_LT(pricing.p2p_per_byte * 10, pricing.kv_per_processed_byte);
  EXPECT_GT(pricing.p2p_per_connection, pricing.kv_per_request);
}

TEST(CostModel, BreakdownToString) {
  CostBreakdown cost{0.10, 0.25, 0.35};
  const std::string s = cost.ToString();
  EXPECT_NE(s.find("$0.1000"), std::string::npos);
  EXPECT_NE(s.find("$0.3500"), std::string::npos);
}

TEST(CostModel, EstimateWireRatioTracksCodec) {
  FsdOptions options;
  options.compress = false;
  EXPECT_DOUBLE_EQ(EstimateWireRatio(options), 1.0);
  options.compress = true;
  EXPECT_DOUBLE_EQ(EstimateWireRatio(options), kAprioriCompressRatio);
  // Quantized: ~2 structure bytes keep the lossless ratio, the 4 value
  // bytes shrink to quant_bits/8.
  options.quant_bits = 8;
  EXPECT_DOUBLE_EQ(EstimateWireRatio(options),
                   (2.0 * kAprioriCompressRatio + 1.0) / 6.0);
  options.compress = false;
  EXPECT_DOUBLE_EQ(EstimateWireRatio(options), (2.0 + 1.0) / 6.0);
  options.compress = true;
  options.quant_bits = 4;
  EXPECT_LT(EstimateWireRatio(options),
            (2.0 * kAprioriCompressRatio + 1.0) / 6.0);
}

TEST(CostModel, QuantBreakEvenPricesBytesAgainstCpu) {
  cloud::PricingConfig pricing;
  cloud::ComputeModelConfig compute;
  FsdOptions options;
  options.compress = true;
  const double raw = 100.0e6;  // 100 MB of activations per query
  const QuantBreakEvenEstimate kv = EstimateQuantBreakEven(
      pricing, compute, options, Variant::kKv, 1024, raw, 8);
  EXPECT_GT(kv.bytes_saved, 0.0);
  EXPECT_GT(kv.byte_dollars_saved, 0.0);
  EXPECT_GT(kv.cpu_dollars_added, 0.0);
  EXPECT_DOUBLE_EQ(kv.net_saving,
                   kv.byte_dollars_saved - kv.cpu_dollars_added);
  // KV meters processed bytes in both directions — at 100 MB/query the
  // savings dwarf the quantize pass.
  EXPECT_TRUE(kv.worthwhile);
  // Object storage has no per-byte meter: quantization only costs CPU.
  const QuantBreakEvenEstimate object = EstimateQuantBreakEven(
      pricing, compute, options, Variant::kObject, 1024, raw, 8);
  EXPECT_DOUBLE_EQ(object.byte_dollars_saved, 0.0);
  EXPECT_FALSE(object.worthwhile);
  // Narrower widths save strictly more bytes.
  const QuantBreakEvenEstimate narrow = EstimateQuantBreakEven(
      pricing, compute, options, Variant::kKv, 1024, raw, 4);
  EXPECT_GT(narrow.bytes_saved, kv.bytes_saved);
}

}  // namespace
}  // namespace fsd::core
