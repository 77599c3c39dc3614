// Compute-offload determinism: the acceptance gate for multi-core worker
// kernels. A serving fleet (real sparse kernels, channel codecs, billing)
// must produce BYTE-IDENTICAL outputs, FleetStats and billing ledgers for
// every compute pool size — 0 (inline), 1, 4 and the host's hardware
// concurrency — the pool may only change the wall clock, never an event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cloud/cloud.h"
#include "common/strings.h"
#include "core/serving.h"
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

Workload MakeWorkload(int32_t neurons, int32_t layers, int32_t batch,
                      int32_t workers, uint64_t seed = 7) {
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

/// Everything a run can observe: outputs, per-query metrics, fleet stats,
/// the full billing ledger and the kernel's event count. Byte-compared.
struct Artifacts {
  std::vector<QueryOutputs> outputs;
  std::vector<std::string> query_metrics;
  std::string fleet_summary;
  std::string ledger;
  uint64_t events = 0;
  uint64_t offload_calls = 0;  // wall-clock side; NOT part of the compare
  /// Every receive-side LayerMetrics field of every worker and layer of
  /// every query, most of which never reach Summary(). Pinned separately.
  std::string receive_counters;
};

/// One line per layer: the receive-side counters, doubles at full
/// precision so any change in a charged window shows.
std::string ReceiveCounters(int query, const RunMetrics& metrics) {
  std::string out;
  for (const WorkerMetrics& worker : metrics.workers) {
    for (size_t k = 0; k < worker.layers.size(); ++k) {
      const LayerMetrics& m = worker.layers[k];
      out += StrFormat(
          "q%d w%d l%zu polls=%lld empty_polls=%lld deletes=%lld "
          "msgs_received=%lld lists=%lld gets=%lld kv_pops=%lld "
          "kv_empty_pops=%lld direct_pops=%lld direct_empty_pops=%lld "
          "nul_skipped=%lld redundant_skipped=%lld recv_wire_bytes=%lld "
          "recv_billed_bytes=%lld recv_rows=%lld recv_wait_s=%.17g "
          "deserialize_s=%.17g offload_calls=%lld "
          "offload_virtual_s=%.17g\n",
          query, worker.worker_id, k, static_cast<long long>(m.polls),
          static_cast<long long>(m.empty_polls),
          static_cast<long long>(m.deletes),
          static_cast<long long>(m.msgs_received),
          static_cast<long long>(m.lists), static_cast<long long>(m.gets),
          static_cast<long long>(m.kv_pops),
          static_cast<long long>(m.kv_empty_pops),
          static_cast<long long>(m.direct_pops),
          static_cast<long long>(m.direct_empty_pops),
          static_cast<long long>(m.nul_skipped),
          static_cast<long long>(m.redundant_skipped),
          static_cast<long long>(m.recv_wire_bytes),
          static_cast<long long>(m.recv_billed_bytes),
          static_cast<long long>(m.recv_rows), m.recv_wait_s,
          m.deserialize_s, static_cast<long long>(m.offload_calls),
          m.offload_virtual_s);
    }
  }
  return out;
}

FsdOptions FleetOptions(Variant variant, int32_t quant_bits) {
  FsdOptions options;
  options.variant = variant;
  options.num_workers = 4;
  options.quant_bits = quant_bits;
  return options;
}

Artifacts RunFleet(const Workload& w, const FsdOptions& options,
                   int compute_threads,
                   const cloud::CloudConfig& cloud_config = {}) {
  constexpr int kQueries = 2;
  sim::SimTuning tuning;
  tuning.compute_threads = compute_threads;
  sim::Simulation sim(tuning);
  cloud::CloudEnv cloud(&sim, cloud_config);
  ServingRuntime serving(&cloud);

  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &w.partition;
  request.batches = {&w.input};
  request.options = options;
  for (int q = 0; q < kQueries; ++q) {
    auto id = serving.Submit(request, 0.01 * q);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
  }
  auto report = serving.Drain();
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  Artifacts artifacts;
  for (const QueryOutcome& outcome : report->queries) {
    EXPECT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    artifacts.outputs.push_back(outcome.report.outputs);
    artifacts.query_metrics.push_back(outcome.report.metrics.Summary());
    artifacts.receive_counters += ReceiveCounters(
        static_cast<int>(artifacts.outputs.size()), outcome.report.metrics);
  }
  artifacts.fleet_summary = report->fleet.Summary();
  artifacts.ledger = cloud.billing().ToString();
  artifacts.events = sim.events_dispatched();
  artifacts.offload_calls = sim.offload_stats().calls;
  return artifacts;
}

Artifacts RunFleet(const Workload& w, Variant variant, int compute_threads,
                   int32_t quant_bits) {
  return RunFleet(w, FleetOptions(variant, quant_bits), compute_threads);
}

std::vector<int> PoolSizes() {
  std::vector<int> pools = {0, 1, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0 && std::find(pools.begin(), pools.end(), hw) == pools.end()) {
    pools.push_back(hw);
  }
  return pools;
}

class OffloadDeterminism : public ::testing::TestWithParam<Variant> {};

TEST_P(OffloadDeterminism, FleetByteIdenticalAcrossPoolSizes) {
  const Variant variant = GetParam();
  const Workload w = MakeWorkload(256, 8, 16, 4);
  const Artifacts baseline = RunFleet(w, variant, /*compute_threads=*/0,
                                      /*quant_bits=*/0);
  // The offload path is genuinely exercised (kernels + codec passes), and
  // the deterministic metrics surface it.
  EXPECT_GT(baseline.offload_calls, 0u);
  EXPECT_NE(baseline.fleet_summary.find(" offload="), std::string::npos)
      << baseline.fleet_summary;
  // Correct answers, not just consistent ones.
  for (const auto& outputs : baseline.outputs) {
    ASSERT_EQ(outputs.size(), 1u);
    EXPECT_EQ(outputs[0], w.expected);
  }

  for (const int pool : PoolSizes()) {
    if (pool == 0) continue;
    const Artifacts run = RunFleet(w, variant, pool, /*quant_bits=*/0);
    EXPECT_EQ(baseline.outputs, run.outputs) << "pool " << pool;
    EXPECT_EQ(baseline.query_metrics, run.query_metrics) << "pool " << pool;
    EXPECT_EQ(baseline.fleet_summary, run.fleet_summary) << "pool " << pool;
    EXPECT_EQ(baseline.ledger, run.ledger) << "pool " << pool;
    EXPECT_EQ(baseline.events, run.events) << "pool " << pool;
    EXPECT_EQ(baseline.offload_calls, run.offload_calls) << "pool " << pool;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OffloadDeterminism,
                         ::testing::Values(Variant::kQueue, Variant::kObject,
                                           Variant::kKv, Variant::kDirect),
                         [](const auto& info) {
                           switch (info.param) {
                             case Variant::kQueue: return std::string("Queue");
                             case Variant::kObject: return std::string("Object");
                             case Variant::kKv: return std::string("Kv");
                             case Variant::kDirect: return std::string("Direct");
                             default: return std::string("Other");
                           }
                         });

TEST(OffloadDeterminism, QuantizedWireByteIdenticalAcrossPoolSizes) {
  // Quantized transport adds the scan+pack pass to the offloaded encode
  // closure and a surcharge to the charged window — both must stay
  // byte-identical under the pool.
  const Workload w = MakeWorkload(256, 8, 16, 4);
  const Artifacts baseline =
      RunFleet(w, Variant::kQueue, /*compute_threads=*/0, /*quant_bits=*/8);
  const Artifacts pooled =
      RunFleet(w, Variant::kQueue, /*compute_threads=*/4, /*quant_bits=*/8);
  EXPECT_EQ(baseline.query_metrics, pooled.query_metrics);
  EXPECT_EQ(baseline.fleet_summary, pooled.fleet_summary);
  EXPECT_EQ(baseline.ledger, pooled.ledger);
  EXPECT_EQ(baseline.events, pooled.events);
  EXPECT_EQ(baseline.outputs, pooled.outputs);
}

// ---------------------------------------------------------------------------
// Pinned artifacts: FNV-1a digests of every query's metrics summary, the
// fleet summary, the billing ledger and the kernel's event count, per
// backend, topology and the send/receive options that change the wire.
// Refactors of the channel paths must leave every digest unchanged; a change
// that means to move virtual time or billing re-pins them on purpose.

/// FNV-1a over length-prefixed byte strings.
class Fnv1a {
 public:
  void Add(std::string_view bytes) {
    const uint64_t size = bytes.size();
    for (size_t i = 0; i < sizeof(size); ++i) {
      hash_ = (hash_ ^ ((size >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
    for (const char c : bytes) {
      hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

uint64_t ArtifactDigest(const Artifacts& artifacts) {
  Fnv1a digest;
  for (const std::string& summary : artifacts.query_metrics) {
    digest.Add(summary);
  }
  digest.Add(artifacts.fleet_summary);
  digest.Add(artifacts.ledger);
  digest.Add(std::to_string(artifacts.events));
  return digest.hash();
}

uint64_t ReceiveDigest(const Artifacts& artifacts) {
  Fnv1a digest;
  digest.Add(artifacts.receive_counters);
  return digest.hash();
}

struct PinnedCase {
  std::string name;
  FsdOptions options;
  cloud::CloudConfig cloud;
  uint64_t digest;
  uint64_t recv_digest;  ///< ReceiveDigest
};

std::vector<PinnedCase> PinnedCases() {
  struct Backend {
    const char* name;
    Variant variant;
  };
  const Backend backends[] = {{"queue", Variant::kQueue},
                              {"object", Variant::kObject},
                              {"kv", Variant::kKv},
                              {"direct", Variant::kDirect}};
  const CollectiveTopology topologies[] = {CollectiveTopology::kThroughRoot,
                                           CollectiveTopology::kBinomialTree,
                                           CollectiveTopology::kRing};
  const uint64_t matrix_digests[4][3] = {
      {0x71e6f5e7060f0bd0ull, 0xf6deec0eaf8c234cull, 0x411edc3fcc40a123ull},
      {0xf1bfb7ae6801c681ull, 0xed765c114302c6caull, 0x616a0ad613db96abull},
      {0x99e0961fa971ca71ull, 0x56e4332de9e53addull, 0xb1cf00626c00467full},
      {0x75ae539be524adf2ull, 0x4541f1f4feed1fd9ull, 0xf91fbb82abe5256full},
  };
  const uint64_t matrix_recv_digests[4][3] = {
      {0x9b43406470a3b2ecull, 0x51f48a54025e43e1ull, 0x5cc09271753b1aa6ull},
      {0x1549ec827166acd7ull, 0x856f47492739c655ull, 0xf8113774eea7ade9ull},
      {0x83f16254bcc59c74ull, 0x388f619f9d0da0b8ull, 0xc1bf438327d48971ull},
      {0xbb852d80ea75a0b9ull, 0xa73802112626b254ull, 0x61536326685018feull},
  };
  std::vector<PinnedCase> cases;
  for (int b = 0; b < 4; ++b) {
    for (int t = 0; t < 3; ++t) {
      FsdOptions options = FleetOptions(backends[b].variant, 0);
      options.collective_topology = topologies[t];
      cases.push_back(
          {std::string(backends[b].name) + "/" +
               std::string(CollectiveTopologyName(topologies[t])),
           options, {}, matrix_digests[b][t], matrix_recv_digests[b][t]});
    }
  }
  struct PunchCase {
    const char* name;
    double failure_rate;
    uint64_t digest;
    uint64_t recv_digest;
  };
  const PunchCase punches[] = {
      {"1.0", 1.0, 0x2d0ec9660789ca46ull, 0x83f16254bcc59c74ull},
      {"0.5", 0.5, 0x6b6ecdd4e24c119bull, 0xddec191dcf2be260ull}};
  for (const PunchCase& punch : punches) {
    cloud::CloudConfig config;
    config.latency.p2p_punch_failure_rate = punch.failure_rate;
    cases.push_back({std::string("direct/punch_failure=") + punch.name,
                     FleetOptions(Variant::kDirect, 0), config, punch.digest,
                     punch.recv_digest});
  }
  FsdOptions queue_ungreedy = FleetOptions(Variant::kQueue, 0);
  queue_ungreedy.greedy_packing = false;
  cases.push_back({"queue/greedy_packing=false", queue_ungreedy, {},
                   0x6b11dfba674d3c1dull, 0x9ecfd4fc9e975f21ull});
  FsdOptions object_no_nul = FleetOptions(Variant::kObject, 0);
  object_no_nul.nul_markers = false;
  cases.push_back({"object/nul_markers=false", object_no_nul, {},
                   0x02dec8ddd6501500ull, 0x016bfca956548c40ull});
  cases.push_back({"kv/quant_bits=8", FleetOptions(Variant::kKv, 8), {},
                   0xc0cca5729783ceeeull, 0x4fa87ab573779eecull});
  return cases;
}

TEST(OffloadDeterminism, ArtifactsMatchPinnedDigests) {
  const Workload w = MakeWorkload(256, 8, 16, 4);
  for (const PinnedCase& pinned : PinnedCases()) {
    const Artifacts run =
        RunFleet(w, pinned.options, /*compute_threads=*/0, pinned.cloud);
    for (const auto& outputs : run.outputs) {
      ASSERT_EQ(outputs.size(), 1u) << pinned.name;
      // Quantized transport is lossy by design; its bytes are pinned below.
      if (pinned.options.quant_bits == 0) {
        EXPECT_EQ(outputs[0], w.expected) << pinned.name;
      }
    }
    EXPECT_EQ(ArtifactDigest(run), pinned.digest)
        << pinned.name << ": 0x" << std::hex << ArtifactDigest(run);
  }
}

// The receive loop's counters, pinned per case: polls, pops, LISTs and GETs,
// skips, billed and wire bytes, and every charged deserialization window.
// Most never reach Summary(), so ArtifactsMatchPinnedDigests cannot see
// them move.
TEST(OffloadDeterminism, ReceiveCountersMatchPinnedDigests) {
  const Workload w = MakeWorkload(256, 8, 16, 4);
  for (const PinnedCase& pinned : PinnedCases()) {
    const Artifacts run =
        RunFleet(w, pinned.options, /*compute_threads=*/0, pinned.cloud);
    EXPECT_NE(run.receive_counters.find(" recv_rows="), std::string::npos)
        << pinned.name;
    EXPECT_EQ(ReceiveDigest(run), pinned.recv_digest)
        << pinned.name << ": 0x" << std::hex << ReceiveDigest(run);
  }
}

}  // namespace
}  // namespace fsd::core
