// Flash-crowd scaling benchmark (λScale-style fast scaling): an idle
// service hit by a 0 -> N qps step of same-family queries.
//
// The storage-only baseline cold-loads the entire fleet through the object
// store: every cold instance of the burst pays a full multipart share read,
// so P-instance trees arriving B at a time cost ~B*P GETs of the SAME
// bytes, all at storage latency. With the ShareDistributor + predictive
// pre-warming enabled on the identical trace:
//  - after the first read of each share, cold instances pull it from warm
//    peers over the NAT-punched fabric (KV relay on punch failure),
//    multicast down a binomial tree -> object-storage reads collapse to
//    ~1 per share;
//  - the serving pipeline's EWMA arrival-rate estimate pre-warms instances
//    at the burst onset (invoke + share-load ahead of the queue), bounded
//    by a dollar budget fed from the cost model.
//
// Asserted shapes:
//  - byte-identical per-query outputs across both modes (the distributor
//    moves bytes, never values)
//  - object-storage model reads with the feature on drop to <= 1/4 of the
//    baseline's (the "~1 read per share" claim at quick scale)
//  - cold-start ratio and accepted-query p95 strictly improve
//  - workload-level cost reconciliation in BOTH modes: summed per-query
//    comm predictions (plus the pre-warm loop's mirrored GET/transfer
//    charges, which belong to no query) match the ledger to < 0.1%
//
// It also reports wall-clock rates of the peer-share path as gated keys:
//  - share_chunk_{encode,verify}_bytes_per_sec: EncodeShareChunk (which
//    builds a chunk's wire image) and ShareChunkMatches (the byte check a
//    delivered buffer other than the image gets);
//  - share_transfer_bytes_per_sec: share bytes delivered per second when
//    a fixed set of cold requesters pulls one share through
//    ShareDistributor::Acquire, over the punched fabric and over a forced
//    KV relay.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "core/cost_model.h"
#include "core/serving.h"
#include "core/share_distributor.h"
#include "core/worker.h"

using namespace fsd;
using bench::ScaleConfig;

namespace {

struct ModeResult {
  double p50_s = 0.0;
  double p95_s = 0.0;
  double cold_ratio = 0.0;
  int64_t cold_starts = 0;
  int64_t invocations = 0;
  int64_t storage_loads = 0;
  int64_t peer_loads = 0;
  int64_t prewarmed_hits = 0;
  int32_t prewarm_invocations = 0;
  double prewarm_spent = 0.0;
  double cost_per_query = 0.0;
  double predicted_comm = 0.0;  ///< per-query predictions + pre-warm mirrors
  double ledger_comm = 0.0;
  bool outputs_ok = true;
  std::vector<core::QueryOutputs> outputs;
};

ModeResult RunMode(const bench::Workload& workload,
                   const part::ModelPartition& partition,
                   const std::vector<double>& arrivals, bool fast_scaling,
                   double budget_dollars) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  core::ServingOptions serving_options;
  if (fast_scaling) {
    serving_options.peer_share_transfer = true;
    serving_options.predictive_prewarm = true;
    serving_options.prewarm_budget_dollars = budget_dollars;
  }
  core::ServingRuntime serving(&cloud, serving_options);

  core::InferenceRequest request;
  request.dnn = &workload.dnn;
  request.partition = &partition;
  request.batches = {&workload.input};
  // Queue variant + small sample batches: the cold path (model-share reads
  // above all) dominates, which is exactly what the distributor attacks.
  request.options.variant = core::Variant::kQueue;
  request.options.num_workers = partition.num_parts;
  for (double arrival : arrivals) {
    FSD_CHECK_OK(serving.Submit(request, arrival).status());
  }
  auto report = serving.Drain();
  FSD_CHECK_OK(report.status());

  ModeResult result;
  for (const core::QueryOutcome& outcome : report->queries) {
    FSD_CHECK_OK(outcome.report.status);
    result.outputs_ok &= outcome.report.outputs.size() == 1 &&
                         outcome.report.outputs[0] == workload.expected;
    result.outputs.push_back(outcome.report.outputs);
    result.predicted_comm += outcome.report.predicted.communication;
  }
  // The pre-warm loop's charges belong to no query; its mirrors carry the
  // exact ledger quantities it moved (GET parts + peer/relay transfers).
  const cloud::PricingConfig pricing;
  result.predicted_comm +=
      static_cast<double>(report->fleet.prewarm_storage_parts) *
          pricing.object_per_get +
      core::ShareTransferCost(pricing, report->fleet.prewarm_peer_connects,
                              report->fleet.prewarm_peer_bytes,
                              report->fleet.prewarm_relay_requests,
                              report->fleet.prewarm_relay_bytes);
  result.ledger_comm = report->billing.comm_cost;
  result.p50_s = report->fleet.latency_p50_s;
  result.p95_s = report->fleet.latency_p95_s;
  result.cold_ratio = report->fleet.cold_start_ratio;
  result.cold_starts = report->fleet.cold_starts;
  result.invocations = report->fleet.worker_invocations;
  result.storage_loads = report->fleet.share_loads_storage;
  result.peer_loads = report->fleet.share_loads_peer;
  result.prewarmed_hits = report->fleet.prewarmed_hits;
  result.prewarm_invocations = report->fleet.prewarm_invocations;
  result.prewarm_spent = report->fleet.prewarm_budget_spent;
  result.cost_per_query = report->fleet.cost_per_query;
  return result;
}

struct ShareChunkRates {
  double encode_bytes_per_sec = 0.0;
  double verify_bytes_per_sec = 0.0;
};

/// Host rate of the peer-share chunk path over partition 0's share, cut
/// into peer-transfer chunks (at most 8 of them, so the pre-encoded copy
/// the verify side needs stays small at any scale). Each side repeats
/// whole sweeps for at least `min_s` of wall time.
ShareChunkRates MeasureShareChunks(const model::SparseDnn& dnn,
                                   const part::ModelPartition& partition,
                                   double min_s) {
  using core::ShareDistributor;
  const std::string family = "flash-crowd";
  const uint64_t chunk_bytes = ShareDistributor::Options{}.peer_chunk_bytes;
  const uint64_t share =
      std::min(partition.WeightShareBytes(dnn, 0), 8 * chunk_bytes);
  const uint64_t total = ShareDistributor::ChunkCount(share, chunk_bytes);
  const auto payload = [&](uint64_t seq) {
    return std::min(chunk_bytes, share - seq * chunk_bytes);
  };
  const auto rate = [min_s](auto sweep) {
    const auto start = std::chrono::steady_clock::now();
    double bytes = 0.0;
    double elapsed = 0.0;
    do {
      bytes += sweep();
      elapsed = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    } while (elapsed < min_s);
    return bytes / elapsed;
  };

  ShareChunkRates rates;
  rates.encode_bytes_per_sec = rate([&]() {
    double bytes = 0.0;
    for (uint64_t seq = 0; seq < total; ++seq) {
      bytes += static_cast<double>(
          ShareDistributor::EncodeShareChunk(family, 0, 0, seq, total,
                                             payload(seq))
              .size());
    }
    return bytes;
  });
  std::vector<Bytes> chunks;
  for (uint64_t seq = 0; seq < total; ++seq) {
    chunks.push_back(ShareDistributor::EncodeShareChunk(family, 0, 0, seq,
                                                        total, payload(seq)));
  }
  rates.verify_bytes_per_sec = rate([&]() {
    double bytes = 0.0;
    for (uint64_t seq = 0; seq < total; ++seq) {
      FSD_CHECK(ShareDistributor::ShareChunkMatches(chunks[seq], family, 0, 0,
                                                    seq, total, payload(seq)));
      bytes += static_cast<double>(chunks[seq].size());
    }
    return bytes;
  });
  return rates;
}

/// Wall-clock rate of share delivery through ShareDistributor::Acquire:
/// `requesters` cold instances invoked at once pull one share of
/// `share_bytes`. The first reads it from storage, and the rest take it
/// from the growing holder set down the binomial tree. One sweep runs
/// this on a fresh cloud and distributor twice, once with every punch
/// succeeding and once with every punch failing (the KV relay). The rate
/// is share bytes delivered peer-to-peer per second of sweep wall time,
/// over sweeps repeated for at least `min_s`.
double MeasureShareTransfer(uint64_t share_bytes, int32_t requesters,
                            double min_s) {
  const auto sweep = [&](bool relay) {
    sim::Simulation sim;
    cloud::CloudConfig config;
    config.latency.p2p_punch_failure_rate = relay ? 1.0 : 0.0;
    cloud::CloudEnv cloud(&sim, config);
    core::ShareDistributor distributor(&cloud, {});
    const core::FsdOptions options;
    const std::string family = "flash-crowd/transfer";
    int64_t peer_loads = 0;
    cloud::FaasFunctionConfig fn;
    fn.name = "share-pull";
    fn.memory_mb = 1024;
    fn.handler = [&](cloud::FaasContext* ctx) {
      core::ModelLoadMetrics metrics;
      if (distributor.Acquire(ctx, options, family, 0, share_bytes,
                              &metrics) ==
          core::ShareDistributor::Source::kStorage) {
        FSD_CHECK_OK(ctx->SleepFor(0.5));  // the storage read
        core::PartitionCache* cache =
            core::InstancePartitionCache(ctx, options);
        FSD_CHECK(cache != nullptr);
        cache->Insert(family, 0, options.model_version, share_bytes);
        distributor.Publish(ctx, options, family, 0);
      }
      peer_loads += metrics.share_loads_peer;
      ctx->set_result(Status::OK());
    };
    FSD_CHECK_OK(cloud.faas().RegisterFunction(fn));
    for (int32_t r = 0; r < requesters; ++r) {
      FSD_CHECK_OK(cloud.faas().InvokeAsync("share-pull", {}).status);
    }
    sim.Run();
    FSD_CHECK_EQ(peer_loads, requesters - 1);
    return static_cast<double>(peer_loads) * static_cast<double>(share_bytes);
  };
  const auto start = std::chrono::steady_clock::now();
  double bytes = 0.0;
  double elapsed = 0.0;
  do {
    bytes += sweep(/*relay=*/false) + sweep(/*relay=*/true);
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_s);
  return bytes / elapsed;
}

}  // namespace

int main() {
  const ScaleConfig scale = ScaleConfig::FromEnv();
  // Wide model, small per-query batches: each worker tree's cost and
  // latency are dominated by its P cold share loads — the flash-crowd
  // regime. P=4 trees, a short trickle that seeds the EWMA estimators,
  // then the 0 -> N qps step.
  const int32_t neurons = scale.NeuronsOr(65536);
  const int32_t workers = 4;
  const int32_t burst_queries = scale.tiny ? 4 : 16;
  const double burst_qps = 12.0;
  const double burst_at_s = 10.0;
  const double budget_dollars = 0.05;
  bench::OverrideBatch(neurons, 8);
  const bench::Workload& workload = bench::GetWorkload(neurons, scale);
  const part::ModelPartition& partition = bench::GetPartition(
      neurons, workers, part::PartitionScheme::kHypergraph, scale);

  bench::PrintHeader(
      StrFormat("FLASH CROWD — N=%d, P=%d, idle -> %d queries at %.0f qps",
                neurons, workers, burst_queries, burst_qps),
      "peer share distribution + predictive pre-warm vs storage-only cold "
      "path, identical trace");

  std::vector<double> arrivals = {0.0, 2.0, 4.0};  // EWMA-seeding trickle
  for (int32_t q = 0; q < burst_queries; ++q) {
    arrivals.push_back(burst_at_s + static_cast<double>(q) / burst_qps);
  }
  const ModeResult base =
      RunMode(workload, partition, arrivals, /*fast_scaling=*/false, 0.0);
  const ModeResult fast = RunMode(workload, partition, arrivals,
                                  /*fast_scaling=*/true, budget_dollars);

  std::printf("%-12s | %-8s %-8s | %-6s %-6s | %-8s %-8s %-8s | %-10s\n",
              "mode", "p50", "p95", "cold", "ratio", "storage", "peer",
              "prewarm", "$/query");
  bench::PrintRule();
  for (const auto& [name, r] :
       {std::pair<const char*, const ModeResult&>{"storage-only", base},
        std::pair<const char*, const ModeResult&>{"fast-scaling", fast}}) {
    std::printf(
        "%-12s | %7.3fs %7.3fs | %6lld %6.2f | %8lld %8lld %8lld | %-10s\n",
        name, r.p50_s, r.p95_s, static_cast<long long>(r.cold_starts),
        r.cold_ratio, static_cast<long long>(r.storage_loads),
        static_cast<long long>(r.peer_loads),
        static_cast<long long>(r.prewarmed_hits),
        HumanDollars(r.cost_per_query).c_str());
  }

  const double rel_err_base =
      std::abs(base.predicted_comm - base.ledger_comm) /
      std::max(1e-12, base.ledger_comm);
  const double rel_err_fast =
      std::abs(fast.predicted_comm - fast.ledger_comm) /
      std::max(1e-12, fast.ledger_comm);
  const bool identical = base.outputs == fast.outputs;

  std::printf(
      "\nstorage reads %lld -> %lld, cold-start ratio %.2f -> %.2f, "
      "p95 %.3fs -> %.3fs\n",
      static_cast<long long>(base.storage_loads),
      static_cast<long long>(fast.storage_loads), base.cold_ratio,
      fast.cold_ratio, base.p95_s, fast.p95_s);
  std::printf(
      "pre-warm: %d invocations, $%.6f committed of $%.2f budget, "
      "%lld pre-warmed hits\n",
      fast.prewarm_invocations, fast.prewarm_spent, budget_dollars,
      static_cast<long long>(fast.prewarmed_hits));
  std::printf(
      "cost-model reconciliation (per-query comm predictions + pre-warm "
      "mirrors vs ledger): fast rel.err %.4f%%, baseline %.4f%%\n",
      100.0 * rel_err_fast, 100.0 * rel_err_base);
  std::printf("outputs %s\n", identical ? "IDENTICAL" : "MISMATCH");

  const ShareChunkRates share_rates =
      MeasureShareChunks(workload.dnn, partition, scale.tiny ? 0.1 : 0.5);
  std::printf("share chunks: encode %.1f MB/s, verify %.1f MB/s\n",
              share_rates.encode_bytes_per_sec / 1e6,
              share_rates.verify_bytes_per_sec / 1e6);
  // Two peer chunks' worth: 64 chunks on the relay.
  const uint64_t transfer_share_bytes =
      2 * core::ShareDistributor::Options{}.peer_chunk_bytes;
  const int32_t transfer_requesters = 8;
  const double share_transfer_rate =
      MeasureShareTransfer(transfer_share_bytes, transfer_requesters,
                           scale.tiny ? 0.2 : 0.5);
  std::printf(
      "share transfer: %d requesters of one %.0f MiB share, punched + "
      "relay, %.1f MB/s delivered\n",
      transfer_requesters,
      static_cast<double>(transfer_share_bytes) / (1024.0 * 1024.0),
      share_transfer_rate / 1e6);

  bench::WriteBenchJson(
      "flash_crowd",
      {{"baseline_p50_latency_s", base.p50_s},
       {"baseline_p95_latency_s", base.p95_s},
       {"baseline_cold_start_ratio", base.cold_ratio},
       {"baseline_storage_loads", static_cast<double>(base.storage_loads)},
       {"baseline_cost_per_query", base.cost_per_query},
       {"fast_p50_latency_s", fast.p50_s},
       {"fast_p95_latency_s", fast.p95_s},
       {"fast_cold_start_ratio", fast.cold_ratio},
       {"fast_storage_loads", static_cast<double>(fast.storage_loads)},
       {"fast_peer_loads", static_cast<double>(fast.peer_loads)},
       {"fast_prewarmed_hits", static_cast<double>(fast.prewarmed_hits)},
       {"fast_prewarm_invocations",
        static_cast<double>(fast.prewarm_invocations)},
       {"fast_prewarm_budget_spent", fast.prewarm_spent},
       {"fast_cost_per_query", fast.cost_per_query},
       {"comm_prediction_rel_err_fast", rel_err_fast},
       {"comm_prediction_rel_err_base", rel_err_base},
       {"share_chunk_encode_bytes_per_sec",
        share_rates.encode_bytes_per_sec},
       {"share_chunk_verify_bytes_per_sec",
        share_rates.verify_bytes_per_sec},
       {"share_transfer_bytes_per_sec", share_transfer_rate}});

  // The acceptance claims, asserted. Tiny smoke runs the full code path
  // (peer transfers, pre-warm loop, reconciliation) but its 1024-wide
  // model is too light for magnitude claims, so — as everywhere in bench/
  // — shapes are only asserted at quick scale and up.
  FSD_CHECK(base.outputs_ok);
  FSD_CHECK(fast.outputs_ok);
  FSD_CHECK(identical);  // feature off/on must never change values
  FSD_CHECK_LT(rel_err_base, 0.001);
  FSD_CHECK_LT(rel_err_fast, 0.001);
  FSD_CHECK_GT(fast.peer_loads, 0);
  FSD_CHECK_LE(fast.prewarm_spent, budget_dollars);
  if (!scale.tiny) {
    // The P-instance burst's storage reads collapse to ~1 per share.
    FSD_CHECK_LE(fast.storage_loads * 4, base.storage_loads);
    FSD_CHECK_GT(fast.prewarm_invocations, 0);
    FSD_CHECK_LT(fast.cold_ratio, base.cold_ratio);
    FSD_CHECK_LT(fast.p95_s, base.p95_s);
  }

  std::printf(
      "\n%s\n",
      bench::PaperNote(
          "the paper reads every cold share from object storage; "
          "peer-to-peer share multicast and predicted pre-warming are the "
          "lambda-scale / FaaSTube-style serving extension")
          .c_str());
  return 0;
}
