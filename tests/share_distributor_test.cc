// λScale-style share distribution tests: relay fallback must deliver
// multi-chunk shares byte-identically, dead holders must fall out of the
// registry (storage fallback, never a ghost transfer), and the serving
// integration (peer transfer + predictive pre-warm) must leave query
// outputs byte-identical to the storage-only cold path.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string_view>
#include <vector>

#include "cloud/cloud.h"
#include "core/serving.h"
#include "core/share_distributor.h"
#include "core/worker.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

TEST(ShareDistributor, ChunkEncodingIsDeterministic) {
  EXPECT_EQ(ShareDistributor::ChunkCount(0, 128), 1u);
  EXPECT_EQ(ShareDistributor::ChunkCount(128, 128), 1u);
  EXPECT_EQ(ShareDistributor::ChunkCount(129, 128), 2u);
  EXPECT_EQ(ShareDistributor::ChunkCount(300 * 1024, 128 * 1024), 3u);

  const Bytes a = ShareDistributor::EncodeShareChunk("fam", 2, 7, 1, 3, 4096);
  const Bytes b = ShareDistributor::EncodeShareChunk("fam", 2, 7, 1, 3, 4096);
  EXPECT_EQ(a, b);  // replay-stable wire encoding
  EXPECT_GT(a.size(), 4096u);  // header + payload
  // Any field change must change the bytes (receiver-side verification
  // depends on it).
  EXPECT_NE(a, ShareDistributor::EncodeShareChunk("fam", 2, 7, 2, 3, 4096));
  EXPECT_NE(a, ShareDistributor::EncodeShareChunk("fam", 3, 7, 1, 3, 4096));
  EXPECT_NE(a, ShareDistributor::EncodeShareChunk("fam", 2, 8, 1, 3, 4096));
}

/// FNV-1a over a chunk's bytes; independent of the encoder under test.
uint64_t ChunkDigest(const Bytes& chunk) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint8_t byte : chunk) h = (h ^ byte) * 0x100000001b3ull;
  return h;
}

struct GoldenChunk {
  uint64_t payload_bytes;
  uint64_t digest;
};

// Digests of the byte-at-a-time encoder that the word-at-a-time one
// replaced, for chunk 2 of 9 of ("fam@golden", partition 3, version 5).
// The chunk seed hashes the family with std::hash, so the digests hold
// for libstdc++.
constexpr GoldenChunk kGoldenChunks[] = {
    {0, 0xf8142ac700a3a18eull},
    {1, 0xc1504583aaa5f5d3ull},
    {7, 0xd56ee191a45c0bd3ull},
    {8, 0xc7e6c31a027a0a5bull},
    {4095, 0x6ba9608482761f96ull},
    {128 * 1024, 0xb028b9f6b4951bc8ull},
    {4 * 1024 * 1024, 0xc9abfc5d520dedd3ull},
};

Bytes GoldenChunkBytes(uint64_t payload_bytes) {
  return ShareDistributor::EncodeShareChunk("fam@golden", 3, 5, /*seq=*/2,
                                            /*total=*/9, payload_bytes);
}

bool GoldenChunkMatches(const Bytes& chunk, uint64_t payload_bytes,
                        uint64_t seq = 2, uint64_t total = 9) {
  return ShareDistributor::ShareChunkMatches(chunk, "fam@golden", 3, 5, seq,
                                             total, payload_bytes);
}

TEST(ShareDistributor, ChunkEncodingMatchesGoldenDigests) {
  for (const GoldenChunk& golden : kGoldenChunks) {
    SCOPED_TRACE(golden.payload_bytes);
    const Bytes chunk = GoldenChunkBytes(golden.payload_bytes);
    EXPECT_EQ(chunk.size(), 24 + golden.payload_bytes);
    EXPECT_EQ(ChunkDigest(chunk), golden.digest);
    EXPECT_TRUE(GoldenChunkMatches(chunk, golden.payload_bytes));
  }
}

TEST(ShareDistributor, ChunkMatchRejectsEveryDamagedDelivery) {
  for (const GoldenChunk& golden : kGoldenChunks) {
    SCOPED_TRACE(golden.payload_bytes);
    const uint64_t payload = golden.payload_bytes;
    const Bytes chunk = GoldenChunkBytes(payload);

    // One flipped byte in each header word, the first payload byte, the
    // middle of the payload and the last byte (the ragged tail when the
    // payload is not a multiple of 8).
    std::vector<size_t> flips = {0, 8, 16};
    if (payload > 0) {
      flips.push_back(24);
      flips.push_back(24 + payload / 2);
      flips.push_back(chunk.size() - 1);
    }
    for (size_t at : flips) {
      Bytes damaged = chunk;
      damaged[at] ^= 0x01;
      EXPECT_FALSE(GoldenChunkMatches(damaged, payload)) << "flip at " << at;
    }

    Bytes shorter = chunk;
    shorter.pop_back();
    EXPECT_FALSE(GoldenChunkMatches(shorter, payload));
    Bytes longer = chunk;
    longer.push_back(0);
    EXPECT_FALSE(GoldenChunkMatches(longer, payload));

    EXPECT_FALSE(GoldenChunkMatches(chunk, payload, /*seq=*/3));
    EXPECT_FALSE(GoldenChunkMatches(chunk, payload, 2, /*total=*/10));
    EXPECT_FALSE(GoldenChunkMatches(chunk, payload + 1));
    if (payload > 0) {
      EXPECT_FALSE(GoldenChunkMatches(chunk, payload - 1));
    }
  }
  // A header-only delivery checked against an absurd payload size must not
  // wrap the size check.
  EXPECT_FALSE(GoldenChunkMatches(GoldenChunkBytes(0), ~0ull));
}

// Forced punch failure: the transfer must fall back to the KV relay and
// still deliver every chunk byte-identically (the receiver verifies each
// chunk against EncodeShareChunk; a corrupt delivery would degrade to
// kStorage, not kPeer).
TEST(ShareDistributor, RelayFallbackDeliversMultiChunkShareByteIdentically) {
  sim::Simulation sim;
  cloud::CloudConfig config;
  config.latency.p2p_punch_failure_rate = 1.0;  // every punch fails
  cloud::CloudEnv cloud(&sim, config);

  ShareDistributor distributor(&cloud, {});
  const FsdOptions options;  // defaults: cache on, version 0
  const std::string family = "fam@relay";
  const uint64_t share_bytes = 300 * 1024;  // 3 relay chunks at 128 KiB
  const uint64_t chunks = ShareDistributor::ChunkCount(
      share_bytes, distributor.options().relay_chunk_bytes);
  ASSERT_EQ(chunks, 3u);

  WorkerMetrics loader_metrics, puller_metrics;
  auto loader_source = ShareDistributor::Source::kPeer;
  auto puller_source = ShareDistributor::Source::kStorage;

  cloud::FaasFunctionConfig loader_fn;
  loader_fn.name = "sd-loader";
  loader_fn.memory_mb = 1024;
  loader_fn.handler = [&](cloud::FaasContext* ctx) {
    loader_source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                        &loader_metrics);
    ASSERT_EQ(loader_source, ShareDistributor::Source::kStorage);
    // Model the storage read taking a while: concurrent requesters must
    // wait it out instead of issuing a second read.
    ASSERT_TRUE(ctx->SleepFor(3.0).ok());
    PartitionCache* cache = InstancePartitionCache(ctx, options);
    ASSERT_NE(cache, nullptr);
    EXPECT_TRUE(cache->Insert(family, 0, options.model_version, share_bytes)
                    .inserted);
    distributor.Publish(ctx, options, family, 0);
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(loader_fn).ok());

  cloud::FaasFunctionConfig puller_fn;
  puller_fn.name = "sd-puller";
  puller_fn.memory_mb = 1024;
  puller_fn.handler = [&](cloud::FaasContext* ctx) {
    puller_source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                        &puller_metrics);
    PartitionCache* cache = InstancePartitionCache(ctx, options);
    ASSERT_NE(cache, nullptr);
    // A peer delivery must have planted the share in this instance's cache.
    EXPECT_TRUE(cache->Contains(family, 0, options.model_version));
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(puller_fn).ok());

  ASSERT_TRUE(cloud.faas().InvokeAsync("sd-loader", {}).status.ok());
  // After the loader registered its pending read, before it publishes.
  sim.AddProcess(
      "invoke-puller",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-puller", {}).status.ok()); },
      /*start=*/1.5);
  sim.Run();

  EXPECT_EQ(loader_source, ShareDistributor::Source::kStorage);
  EXPECT_EQ(puller_source, ShareDistributor::Source::kPeer);
  EXPECT_EQ(puller_metrics.share_loads_peer, 1);
  // Every chunk moved over the relay, none over the punched fabric.
  EXPECT_EQ(puller_metrics.share_relay_chunks, static_cast<int64_t>(chunks));
  EXPECT_GE(puller_metrics.share_relay_requests,
            static_cast<int64_t>(chunks));
  EXPECT_GE(puller_metrics.share_relay_bytes,
            static_cast<int64_t>(share_bytes));
  EXPECT_EQ(puller_metrics.share_peer_chunks, 0);
  EXPECT_EQ(puller_metrics.share_peer_bytes, 0);
  EXPECT_EQ(puller_metrics.share_peer_connects, 0);
  // Both instances now hold the share.
  EXPECT_EQ(distributor.HolderCount(family, 0, options.model_version), 2);
}

// ---- delivered chunk checks ----

/// What one peer pull saw: where Acquire sent it and what it moved.
struct PullResult {
  ShareDistributor::Source source = ShareDistributor::Source::kStorage;
  WorkerMetrics metrics;
};

constexpr uint64_t kPlantChunkBytes = 1024;
/// One full pop of chunks: a transfer's first pop then drains exactly the
/// share's worth of values from the head of its inbox.
constexpr uint64_t kPlantChunks = cloud::kMaxValuesPerPop;

Bytes PlantChunk(uint64_t seq) {
  return ShareDistributor::EncodeShareChunk("fam@plant", 0, 0, seq,
                                            kPlantChunks, kPlantChunkBytes);
}

/// A loader reads a share from storage and publishes it; a puller then
/// acquires it from the loader over the punched fabric, or over the KV
/// relay when `relay`. Before the puller's Acquire, each of `planted` is
/// delivered as its own buffer into the first transfer's inbox, over the
/// same transport, ahead of the distributor's own chunk images.
PullResult PullWithPlantedChunks(bool relay, const std::vector<Bytes>& planted) {
  sim::Simulation sim;
  cloud::CloudConfig config;
  config.latency.p2p_punch_failure_rate = relay ? 1.0 : 0.0;
  cloud::CloudEnv cloud(&sim, config);

  ShareDistributor::Options distributor_options;
  distributor_options.peer_chunk_bytes = kPlantChunkBytes;
  distributor_options.relay_chunk_bytes = kPlantChunkBytes;
  ShareDistributor distributor(&cloud, distributor_options);
  const FsdOptions options;
  const std::string family = "fam@plant";
  const uint64_t share_bytes = kPlantChunks * kPlantChunkBytes;
  const std::string first_inbox = "xfer-1";

  PullResult result;
  cloud::FaasFunctionConfig loader_fn;
  loader_fn.name = "sd-loader";
  loader_fn.memory_mb = 1024;
  loader_fn.handler = [&](cloud::FaasContext* ctx) {
    WorkerMetrics scratch;
    ASSERT_EQ(distributor.Acquire(ctx, options, family, 0, share_bytes,
                                  &scratch),
              ShareDistributor::Source::kStorage);
    ASSERT_TRUE(ctx->SleepFor(3.0).ok());
    PartitionCache* cache = InstancePartitionCache(ctx, options);
    ASSERT_NE(cache, nullptr);
    EXPECT_TRUE(cache->Insert(family, 0, options.model_version, share_bytes)
                    .inserted);
    distributor.Publish(ctx, options, family, 0);
    ctx->set_result(Status::OK());
  };
  EXPECT_TRUE(cloud.faas().RegisterFunction(loader_fn).ok());

  cloud::FaasFunctionConfig puller_fn;
  puller_fn.name = "sd-puller";
  puller_fn.memory_mb = 1024;
  puller_fn.handler = [&](cloud::FaasContext* ctx) {
    if (relay) {
      ASSERT_TRUE(cloud.kv().CreateNamespace(distributor.relay_namespace())
                      .ok());
    } else {
      ASSERT_TRUE(
          cloud.p2p().Connect(distributor.session(), 1000, 1001).punched);
    }
    for (const Bytes& chunk : planted) {
      SharedBytes value = std::make_shared<const Bytes>(chunk);
      const Status status =
          relay ? cloud.kv()
                      .Push(distributor.relay_namespace(), first_inbox,
                            std::move(value))
                      .status
                : cloud.p2p()
                      .Send(distributor.session(), 1000, 1001, first_inbox,
                            std::move(value))
                      .status;
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    result.source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                        &result.metrics);
    ctx->set_result(Status::OK());
  };
  EXPECT_TRUE(cloud.faas().RegisterFunction(puller_fn).ok());

  EXPECT_TRUE(cloud.faas().InvokeAsync("sd-loader", {}).status.ok());
  sim.AddProcess(
      "invoke-puller",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-puller", {}).status.ok()); },
      /*start=*/1.5);
  sim.Run();
  return result;
}

/// Chunks the transfer sent over the transport under test.
int64_t ChunksSent(const PullResult& pull, bool relay) {
  return relay ? pull.metrics.share_relay_chunks
               : pull.metrics.share_peer_chunks;
}

// A distinct buffer that is byte-equal to the expected image passes the
// full byte check: the first transfer completes on the planted copies.
TEST(ShareDistributor, DistinctByteEqualChunksAreAccepted) {
  std::vector<Bytes> copies;
  for (uint64_t seq = 0; seq < kPlantChunks; ++seq) {
    copies.push_back(PlantChunk(seq));
  }
  for (const bool relay : {false, true}) {
    SCOPED_TRACE(relay ? "relay" : "punched");
    const PullResult pull = PullWithPlantedChunks(relay, copies);
    EXPECT_EQ(pull.source, ShareDistributor::Source::kPeer);
    EXPECT_EQ(pull.metrics.share_loads_peer, 1);
    EXPECT_EQ(ChunksSent(pull, relay), static_cast<int64_t>(kPlantChunks));
  }
}

// A distinct buffer with one flipped byte fails its transfer: the puller
// does not take the share from it, but retries the holder over a fresh
// inbox, which delivers the real images.
TEST(ShareDistributor, DistinctChunkWithAFlippedByteFailsItsTransfer) {
  std::vector<Bytes> damaged;
  for (uint64_t seq = 0; seq < kPlantChunks; ++seq) {
    damaged.push_back(PlantChunk(seq));
  }
  damaged[17].back() ^= 0x01;
  for (const bool relay : {false, true}) {
    SCOPED_TRACE(relay ? "relay" : "punched");
    const PullResult pull = PullWithPlantedChunks(relay, damaged);
    EXPECT_EQ(pull.source, ShareDistributor::Source::kPeer);
    EXPECT_EQ(pull.metrics.share_loads_peer, 1);
    // The rejected transfer and the retry that delivered.
    EXPECT_EQ(ChunksSent(pull, relay),
              2 * static_cast<int64_t>(kPlantChunks));
  }
}

// A holder whose instance was reclaimed at keep-alive expiry must be pruned
// on the next lookup; the requester degrades to the storage read it was
// going to do anyway.
TEST(ShareDistributor, DeadHolderIsPrunedAndRequesterFallsBackToStorage) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  cloud.faas().set_keep_alive_s(1.0);  // tiny warm window

  ShareDistributor distributor(&cloud, {});
  const FsdOptions options;
  const std::string family = "fam@dead";
  const uint64_t share_bytes = 64 * 1024;

  WorkerMetrics metrics;
  auto late_source = ShareDistributor::Source::kPeer;
  int64_t holders_seen_by_late = -1;

  cloud::FaasFunctionConfig fn;
  fn.name = "sd-holder";
  fn.memory_mb = 1024;
  fn.handler = [&](cloud::FaasContext* ctx) {
    WorkerMetrics scratch;
    const auto source = distributor.Acquire(ctx, options, family, 0,
                                            share_bytes, &scratch);
    if (source == ShareDistributor::Source::kStorage) {
      PartitionCache* cache = InstancePartitionCache(ctx, options);
      ASSERT_NE(cache, nullptr);
      EXPECT_TRUE(cache->Insert(family, 0, options.model_version, share_bytes)
                      .inserted);
      distributor.Publish(ctx, options, family, 0);
    }
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(fn).ok());

  cloud::FaasFunctionConfig late_fn;
  late_fn.name = "sd-late";
  late_fn.memory_mb = 1024;
  late_fn.handler = [&](cloud::FaasContext* ctx) {
    // The original holder's instance expired at t=0+keep_alive; its cache
    // died with it, so the registry must prune it here.
    holders_seen_by_late =
        distributor.HolderCount(family, 0, options.model_version);
    late_source = distributor.Acquire(ctx, options, family, 0, share_bytes,
                                      &metrics);
    if (late_source == ShareDistributor::Source::kStorage) {
      distributor.Abandon(family, 0, options.model_version);
    }
    ctx->set_result(Status::OK());
  };
  ASSERT_TRUE(cloud.faas().RegisterFunction(late_fn).ok());

  ASSERT_TRUE(cloud.faas().InvokeAsync("sd-holder", {}).status.ok());
  // Reclaim the holder's instance: an invoke of the SAME function sweeps
  // its expired warm pool (state — and the registered cache — dies).
  sim.AddProcess(
      "reinvoke-holder",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-holder", {}).status.ok()); },
      /*start=*/30.0);
  sim.Run();
  // The second sd-holder invocation ran cold (its predecessor expired), so
  // it re-read from storage and re-published.
  EXPECT_EQ(distributor.HolderCount(family, 0, options.model_version), 1);

  sim.AddProcess(
      "late-check",
      [&]() { ASSERT_TRUE(cloud.faas().InvokeAsync("sd-late", {}).status.ok()); },
      /*start=*/100.0);  // long past every keep-alive
  sim.Run();

  EXPECT_EQ(holders_seen_by_late, 0);  // pruned, no ghost holders
  EXPECT_EQ(late_source, ShareDistributor::Source::kStorage);
  EXPECT_EQ(metrics.share_loads_peer, 0);
}

// ---- serving integration ----

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

InferenceRequest MakeRequest(const Workload& w, int32_t workers) {
  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &w.partition;
  request.batches = {&w.input};
  request.options.variant = Variant::kQueue;
  request.options.num_workers = workers;
  return request;
}

// Feature flag on vs. off over the same burst: outputs must be
// byte-identical (the distributor moves bytes, never values), and the peer
// path must absorb cold loads the storage-only baseline paid for.
TEST(ServingFastScaling, PeerTransferKeepsOutputsIdenticalAndCutsStorageReads) {
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 6;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  auto run = [&](bool peer) {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingOptions so;
    so.peer_share_transfer = peer;
    ServingRuntime serving(&cloud, so);
    for (int q = 0; q < kQueries; ++q) {
      EXPECT_TRUE(serving.Submit(request, 0.001 * q).ok());
    }
    auto report = serving.Drain();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };
  const ServingReport off = run(false);
  const ServingReport on = run(true);

  ASSERT_EQ(off.queries.size(), static_cast<size_t>(kQueries));
  ASSERT_EQ(on.queries.size(), static_cast<size_t>(kQueries));
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(on.queries[q].report.status.ok())
        << on.queries[q].report.status.ToString();
    EXPECT_EQ(on.queries[q].report.outputs, off.queries[q].report.outputs)
        << "query " << q;
    EXPECT_EQ(on.queries[q].report.outputs[0], w.expected) << "query " << q;
  }
  EXPECT_EQ(off.fleet.share_loads_peer, 0);
  EXPECT_GT(on.fleet.share_loads_peer, 0);
  EXPECT_LT(on.fleet.share_loads_storage, off.fleet.share_loads_storage);
  // Total cold loads are conserved — the peer path changes WHERE bytes come
  // from, not how many instances needed them.
  EXPECT_EQ(on.fleet.share_loads_storage + on.fleet.share_loads_peer,
            off.fleet.share_loads_storage + off.fleet.share_loads_peer);
}

// Steady arrivals: the rate policy must fire pre-warm invocations, stay
// inside the dollar budget, and never perturb query outputs.
TEST(ServingFastScaling, PredictivePrewarmFiresWithinBudget) {
  constexpr int32_t kWorkers = 4;
  constexpr int kQueries = 8;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  ServingOptions so;
  so.peer_share_transfer = true;
  so.predictive_prewarm = true;
  so.prewarm_budget_dollars = 0.01;
  ServingRuntime serving(&cloud, so);
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(serving.Submit(request, 0.4 * q).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->queries.size(), static_cast<size_t>(kQueries));
  for (int q = 0; q < kQueries; ++q) {
    ASSERT_TRUE(report->queries[q].report.status.ok());
    EXPECT_EQ(report->queries[q].report.outputs[0], w.expected)
        << "query " << q;
  }
  EXPECT_GT(report->fleet.prewarm_invocations, 0);
  EXPECT_GT(report->fleet.prewarm_budget_spent, 0.0);
  EXPECT_LE(report->fleet.prewarm_budget_spent, so.prewarm_budget_dollars);
  EXPECT_EQ(report->fleet.failed, 0);

  // Every object GET the ledger billed is a query's share read, a query's
  // channel GET, or a pre-warm task's share read — exactly.
  int64_t gets = report->fleet.prewarm_storage_parts;
  for (const QueryOutcome& outcome : report->queries) {
    gets += outcome.report.metrics.model_get_parts +
            outcome.report.metrics.totals.gets;
  }
  EXPECT_EQ(report->billing.quantity(cloud::BillingDimension::kObjectGet),
            static_cast<double>(gets));
}

// Fires a fixed pre-warm burst during an early window and nothing after —
// isolates "pre-warmed then evicted" from the rate policy re-firing at the
// late arrival (which would stand capacity back up and mask the eviction).
class EarlyWindowPolicy final : public PreWarmPolicy {
 public:
  std::string_view name() const override { return "early-window"; }
  PrewarmDecision Decide(const PrewarmSnapshot& snapshot) override {
    PrewarmDecision decision;
    if (snapshot.now_s < 1.0 && snapshot.pending_prewarms == 0) {
      decision.instances = snapshot.workers_per_run;
      decision.reason = "test: early burst";
    } else {
      decision.reason = "test: outside window";
    }
    return decision;
  }
};

// Pre-warmed instances reclaimed before the predicted arrival: the late
// query pays its cold start again but must still complete correctly — the
// pre-warm loop can waste dollars, never correctness.
TEST(ServingFastScaling, PrewarmedInstancesEvictedBeforeArrivalStayCorrect) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  cloud.faas().set_keep_alive_s(0.2);  // everything expires almost at once
  ServingOptions so;
  so.peer_share_transfer = true;
  so.predictive_prewarm = true;
  so.prewarm_budget_dollars = 0.05;
  so.prewarm_policy = std::make_shared<EarlyWindowPolicy>();
  ServingRuntime serving(&cloud, so);
  // A short trickle seeds the EWMA and triggers pre-warms...
  ASSERT_TRUE(serving.Submit(request, 0.0).ok());
  ASSERT_TRUE(serving.Submit(request, 0.3).ok());
  ASSERT_TRUE(serving.Submit(request, 0.6).ok());
  // ...then a long silence lets every instance (pre-warmed included) die
  // before the next arrival.
  ASSERT_TRUE(serving.Submit(request, 60.0).ok());
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->queries.size(), 4u);
  for (const QueryOutcome& outcome : report->queries) {
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
    EXPECT_EQ(outcome.report.outputs[0], w.expected);
  }
  EXPECT_GT(report->fleet.prewarm_invocations, 0);
  // The late query found nothing warm: its workers all cold-started and no
  // pre-warmed cache entry survived to serve it.
  const RunMetrics& late = report->queries[3].report.metrics;
  EXPECT_GT(late.cold_starts, 0);
  EXPECT_EQ(late.prewarmed_hits, 0);
  EXPECT_EQ(report->fleet.failed, 0);
}

// Records every snapshot the runtime hands the pre-warm policy and never
// pre-warms, so the snapshots describe the workload alone.
class RecordingPolicy final : public PreWarmPolicy {
 public:
  std::string_view name() const override { return "recording"; }
  PrewarmDecision Decide(const PrewarmSnapshot& snapshot) override {
    snapshots.push_back(snapshot);
    return {};
  }
  std::vector<PrewarmSnapshot> snapshots;
};

// With no batching, admission control or dispatch bound, every run still
// passes the dispatch gate, so an arrival that overlaps a running tree
// shows that tree to the pre-warm policy as in flight (the Little's-law
// supply term counts it).
TEST(ServingFastScaling, PrewarmSnapshotCountsInFlightRunsWithoutABound) {
  constexpr int32_t kWorkers = 4;
  Workload w = MakeWorkload(256, 8, 16, kWorkers);
  InferenceRequest request = MakeRequest(w, kWorkers);

  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  auto policy = std::make_shared<RecordingPolicy>();
  ServingOptions so;
  so.predictive_prewarm = true;
  so.prewarm_policy = policy;
  ServingRuntime serving(&cloud, so);
  // Arrivals 10 ms apart: each lands while the earlier trees still run.
  for (int q = 0; q < 4; ++q) {
    ASSERT_TRUE(serving.Submit(request, 0.01 * q).ok());
  }
  auto report = serving.Drain();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const QueryOutcome& outcome : report->queries) {
    ASSERT_TRUE(outcome.report.status.ok())
        << outcome.report.status.ToString();
  }

  ASSERT_EQ(policy->snapshots.size(), 4u);
  int32_t max_in_flight = 0;
  for (const PrewarmSnapshot& snapshot : policy->snapshots) {
    max_in_flight = std::max(max_in_flight, snapshot.in_flight_runs);
  }
  EXPECT_GE(max_in_flight, 1);
}

}  // namespace
}  // namespace fsd::core
