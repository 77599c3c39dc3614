// RunInference pinning: one query through the public entry point must keep
// its outputs, timings, metrics, cost-model prediction and billed
// quantities to the bit across refactors of the launch path. A change that
// means to move any of them re-pins the digests on purpose.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "cloud/cloud.h"
#include "core/runtime.h"
#include "core/serving.h"
#include "model/input_gen.h"

namespace fsd::core {
namespace {

struct Workload {
  model::SparseDnn dnn;
  linalg::ActivationMap input;
};

Workload MakeWorkload(int32_t neurons, int32_t layers, int32_t batch,
                      uint64_t seed = 7) {
  model::SparseDnnConfig config;
  config.neurons = neurons;
  config.layers = layers;
  config.seed = seed;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok()) << dnn.status().ToString();

  model::InputConfig input_config;
  input_config.neurons = neurons;
  input_config.batch = batch;
  input_config.seed = seed + 1;
  auto input = model::GenerateInputBatch(input_config);
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  return Workload{std::move(*dnn), std::move(*input)};
}

part::ModelPartition MakePartition(const model::SparseDnn& dnn,
                                   int32_t parts) {
  auto partition = part::PartitionModel(dnn, parts, {});
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  return std::move(*partition);
}

InferenceRequest MakeRequest(const Workload& w,
                             const part::ModelPartition& partition,
                             Variant variant) {
  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &partition;
  request.batches = {&w.input};
  request.options.variant = variant;
  request.options.num_workers = partition.num_parts;
  return request;
}

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

/// Everything RunInference reports except the KV node time, which depends
/// on when the run's namespace is torn down rather than on the run itself.
uint64_t ReportDigest(const InferenceReport& report) {
  Digest d;
  d.AddWord(report.outputs.size());
  for (const linalg::ActivationMap& output : report.outputs) {
    d.AddWord(output.size());
    for (const auto& [row, vec] : output) {
      d.AddWord(static_cast<uint64_t>(row));
      d.AddWord(static_cast<uint64_t>(vec.dim));
      d.AddWord(vec.idx.size());
      for (const auto idx : vec.idx) d.AddWord(static_cast<uint64_t>(idx));
      for (const float val : vec.val) d.AddDouble(val);
    }
  }
  d.AddDouble(report.latency_s);
  d.AddDouble(report.launch_complete_s);
  d.Add(report.metrics.Summary());
  d.AddDouble(report.predicted.compute);
  d.AddDouble(report.predicted.communication);
  d.AddDouble(report.predicted.total);
  for (int i = 0;
       i < static_cast<int>(cloud::BillingDimension::kDimensionCount); ++i) {
    const auto dim = static_cast<cloud::BillingDimension>(i);
    if (dim == cloud::BillingDimension::kKvNodeSecond) continue;
    d.AddDouble(report.billing.quantity(dim));
  }
  return d.value();
}

InferenceReport RunOne(const InferenceRequest& request) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  auto report = RunInference(&cloud, request);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->status.ok()) << report->status.ToString();
  return std::move(*report);
}

TEST(RunInferencePinned, ReportsMatchPinnedDigests) {
  struct PinnedCase {
    const char* name;
    Variant variant;
    int32_t workers;
    uint64_t digest;
  };
  const PinnedCase cases[] = {
      {"serial", Variant::kSerial, 1, 0xcfbcac28421b1c55ull},
      {"queue", Variant::kQueue, 5, 0x152ee6fe14044dcaull},
      {"object", Variant::kObject, 5, 0x02385c1565203b9cull},
      {"kv", Variant::kKv, 5, 0xa88b84ea6040036aull},
      {"direct", Variant::kDirect, 5, 0x00aae18173c2f923ull},
  };
  const Workload w = MakeWorkload(384, 10, 16);
  for (const PinnedCase& pinned : cases) {
    const part::ModelPartition partition = MakePartition(w.dnn, pinned.workers);
    const InferenceReport report =
        RunOne(MakeRequest(w, partition, pinned.variant));
    EXPECT_EQ(ReportDigest(report), pinned.digest)
        << pinned.name << ": 0x" << std::hex << ReportDigest(report);
  }
}

// RunInference is one query through the serving runtime, so its billing
// matches a one-query ServingRuntime's to the dimension — KV node time
// included: the run's namespace is torn down when the run quiesces, not
// after the simulation drained the run's stale long-poll timeouts.
TEST(RunInferencePinned, KvNodeTimeMatchesAOneQueryServingRuntime) {
  const Workload w = MakeWorkload(384, 10, 16);
  const part::ModelPartition partition = MakePartition(w.dnn, 5);
  const InferenceRequest request = MakeRequest(w, partition, Variant::kKv);
  const InferenceReport inference = RunOne(request);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  BillingDelta served_billing;
  {
    ServingRuntime serving(&cloud);
    ASSERT_TRUE(serving.Submit(request, 0.0).ok());
    auto served = serving.Drain();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served->queries.size(), 1u);
    ASSERT_TRUE(served->queries[0].report.status.ok());
    served_billing = served->billing;
  }
  const auto node = cloud::BillingDimension::kKvNodeSecond;
  EXPECT_GT(inference.billing.quantity(node), 0.0);
  EXPECT_EQ(inference.billing.quantity(node), served_billing.quantity(node));
  EXPECT_EQ(inference.billing.total_cost, served_billing.total_cost);
}

}  // namespace
}  // namespace fsd::core
