// Analytical cost model for distributed serverless inference (paper §IV,
// Equations 1-7) plus the a-priori estimators that AutoSelectConfiguration
// (auto_config.h), the §IV-C design selector, ranks candidates with.
//
// Validation (paper §VI-F): predictions computed from run metrics are
// compared against the billing ledger's "actual" charges — the simulation's
// equivalent of the AWS Cost & Usage report.
#ifndef FSD_CORE_COST_MODEL_H_
#define FSD_CORE_COST_MODEL_H_

#include <string>

#include "cloud/billing.h"
#include "cloud/faas.h"
#include "cloud/latency.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "model/sparse_dnn.h"
#include "part/model_partition.h"

namespace fsd::core {

struct CostBreakdown {
  double compute = 0.0;        ///< C_lambda
  double communication = 0.0;  ///< C_SNS + C_SQS, or C_S3
  double total = 0.0;
  std::string ToString() const;
};

/// C_lambda = P*C_inv + P*Tbar*M*C_run (Eq. 4).
double FaasCost(const cloud::PricingConfig& pricing, int32_t num_workers,
                double mean_runtime_s, int32_t memory_mb);

/// C_Queue = C_lambda + S*C_pub + Z*C_byte + Q*C_api (Eqs. 1, 5, 6).
CostBreakdown QueueCost(const cloud::PricingConfig& pricing,
                        int32_t num_workers, double mean_runtime_s,
                        int32_t memory_mb, double publish_chunks,
                        double delivery_bytes, double queue_api_calls);

/// C_Object = C_lambda + V*C_put + R*C_get + L*C_list (Eqs. 2, 7).
CostBreakdown ObjectCost(const cloud::PricingConfig& pricing,
                         int32_t num_workers, double mean_runtime_s,
                         int32_t memory_mb, double puts, double gets,
                         double lists);

/// C_KV = C_lambda + K*C_req + B*C_byte + T_ns*C_node/3600 — the KV
/// analogue of Eqs. 5-7: request and processed-byte metering plus the
/// standing node-hour cost of the run's cache namespace. Pass
/// node_seconds = 0 when the namespace's lifetime is accounted separately
/// (the billing ledger bills it at teardown).
CostBreakdown KvCost(const cloud::PricingConfig& pricing, int32_t num_workers,
                     double mean_runtime_s, int32_t memory_mb,
                     double requests, double processed_bytes,
                     double node_seconds);

/// C_Direct = C_lambda + N*C_conn + D*C_byte + K_r*C_req + B_r*C_pbyte —
/// the FSD-Inf-Direct analogue of Eqs. 5-7: one connection charge per
/// successfully punched link, per-byte transfer pricing on the links, and
/// KV request + processed-byte metering for the traffic of pairs that
/// failed to punch and relay through the cache.
CostBreakdown DirectCost(const cloud::PricingConfig& pricing,
                         int32_t num_workers, double mean_runtime_s,
                         int32_t memory_mb, double connections,
                         double direct_bytes, double relay_requests,
                         double relay_processed_bytes);

/// C_Serial = C_lambda (Eq. 3).
CostBreakdown SerialCost(const cloud::PricingConfig& pricing,
                         double runtime_s, int32_t memory_mb);

/// Billing-exact dollars for moving model shares between instances
/// (λScale-style peer distribution): fresh punched links at
/// C_P2P(connection), fabric bytes at C_P2P(byte), and — for pulls whose
/// punch failed — KV relay requests and processed bytes at the cache's
/// pricing. The arguments are the share-transfer mirror counters the
/// ShareDistributor records as it bills, so predictions built on run
/// metrics reconcile with the ledger exactly.
double ShareTransferCost(const cloud::PricingConfig& pricing,
                         int64_t peer_connects, int64_t peer_bytes,
                         int64_t relay_requests, int64_t relay_bytes);

/// A-priori peer-transfer vs. storage-read break-even for one cold load of
/// a `share_bytes` share: expected dollars and load seconds down each
/// path. The peer path blends the punched fabric (one connection + bytes;
/// memory-to-memory, so no re-deserialization) with the KV relay
/// (value-capped chunks at request + processed-byte pricing) at the
/// environment's punch-failure rate. Feeds the pre-warm policy's budget
/// accounting and the docs' break-even discussion; the measured-path
/// reconciliation uses ShareTransferCost, never this estimate.
struct ShareTransferEstimate {
  double storage_cost = 0.0;    ///< ModelReadGetParts(bytes) * C_S3(Get)
  double peer_cost = 0.0;       ///< expected peer-path dollars
  double storage_load_s = 0.0;  ///< GET + transfer + deserialization time
  double peer_load_s = 0.0;     ///< expected peer transfer time
  bool peer_cheaper = false;    ///< peer_cost < storage_cost
};

ShareTransferEstimate EstimateShareTransfer(
    const cloud::PricingConfig& pricing, const cloud::LatencyConfig& latency,
    const cloud::ComputeModelConfig& compute, uint64_t share_bytes,
    uint64_t relay_chunk_bytes);

/// Predicts the run's cost from its measured metrics (the §VI-F validation
/// path: fine-grained counters -> predicted dollars). Includes the
/// cache-aware model-read term: the multipart GETs each worker issued for
/// its weight share (metrics.model_get_parts — zero for workers whose
/// partition-cache lookup hit) priced at C_S3(Get), plus the peer
/// share-transfer term (ShareTransferCost over the run's share-transfer
/// mirrors) for misses a warm peer served, on top of the
/// variant's IPC terms. When `metrics` is a batched member's sliced view
/// (metrics.tree_share < 1), the per-invocation FaaS term is scaled to the
/// member's batch share of its shared worker tree, so member predictions
/// sum exactly to the tree's whole-run prediction.
CostBreakdown PredictFromMetrics(const cloud::PricingConfig& pricing,
                                 const FsdOptions& options,
                                 const RunMetrics& metrics,
                                 int32_t memory_mb);

/// A-priori model-read GET accounting for one query of a partitioned model
/// under an expected partition-cache hit ratio (the cache-aware a-priori
/// term): cold serving pays `get_parts` multipart GETs per
/// query; a warm fleet hitting the cache on a fraction `hit_ratio` of
/// worker loads saves that fraction of them.
struct ModelReadEstimate {
  double get_parts = 0.0;   ///< GETs issued per query at this hit ratio
  double gets_saved = 0.0;  ///< GETs the cache avoids per query
  double cost = 0.0;        ///< get_parts * C_S3(Get)
  double savings = 0.0;     ///< gets_saved * C_S3(Get)
};

ModelReadEstimate EstimateModelReads(const cloud::PricingConfig& pricing,
                                     const model::SparseDnn& dnn,
                                     const part::ModelPartition& partition,
                                     double hit_ratio);

/// A-priori FsdLz wire/raw ratio for activation payloads — the single
/// constant every a-priori estimator shares. PredictFromMetrics needs no
/// ratio: it reads the bytes a run actually billed.
inline constexpr double kAprioriCompressRatio = 0.6;

/// A-priori wire-bytes / lossless-raw-bytes ratio under the options' wire
/// codec. Lossless mode: kAprioriCompressRatio when compressing, else 1.
/// Quantized mode: of the ~6 raw bytes per nonzero (EstimateRowBytes), the
/// ~2 structure bytes keep the lossless treatment while the 4 value bytes
/// shrink to quant_bits/8 before entropy coding.
double EstimateWireRatio(const FsdOptions& options);

/// CPU-seconds-vs-billed-bytes break-even for flipping the quantized wire
/// mode on one query's activation traffic: the billed-byte dollars the
/// narrower values save on this variant's metered dimension, against the
/// FaaS MB-second dollars of the extra quantize pass. Object storage and
/// the serial variant bill per request, not per byte, so quantization is
/// never worthwhile there.
struct QuantBreakEvenEstimate {
  double lossless_wire_bytes = 0.0;  ///< wire bytes without quantization
  double quant_wire_bytes = 0.0;     ///< wire bytes at `quant_bits`
  double bytes_saved = 0.0;
  double byte_dollars_saved = 0.0;  ///< at the variant's per-byte price
  double cpu_dollars_added = 0.0;   ///< quantize pass at C_run(memory)
  double net_saving = 0.0;          ///< byte dollars minus CPU dollars
  bool worthwhile = false;          ///< net_saving > 0
};

QuantBreakEvenEstimate EstimateQuantBreakEven(
    const cloud::PricingConfig& pricing,
    const cloud::ComputeModelConfig& compute, const FsdOptions& options,
    Variant variant, int32_t memory_mb, double raw_bytes_per_query,
    int32_t quant_bits);

/// Coarse analytic end-to-end latency estimate for one query: launch-tree
/// depth, model-share load, and the per-layer compute/communication
/// overlap, built from the same latency catalogue the simulator samples.
/// Deliberately approximate — it exists for relative ordering
/// (AutoSelectConfiguration) and order-of-magnitude throughput sizing
/// (admission control), not absolute accuracy.
double EstimateQueryLatency(const model::SparseDnn& dnn,
                            const FsdOptions& options,
                            const cloud::LatencyConfig& latency,
                            const cloud::ComputeModelConfig& compute,
                            double activation_density, int32_t batch,
                            Variant variant, int32_t workers);

/// A-priori sustainable serving throughput for a slot-bounded deployment
/// (the admission-control input: before any run completes, the serving
/// runtime must already know roughly what rate the fleet can sustain, so
/// overload is recognizable from the first burst). `est_run_s` is the
/// EstimateQueryLatency of one tree; the serving runtime refines it with
/// an EWMA of observed tree durations as runs complete.
struct ThroughputEstimate {
  double est_run_s = 0.0;        ///< per-worker-tree execution estimate
  double queries_per_run = 1.0;  ///< expected batch occupancy
  /// Queries/s at `max_concurrent_runs` simultaneous trees; +infinity when
  /// the dispatcher is unbounded (max_concurrent_runs <= 0).
  double sustainable_qps = 0.0;
};

ThroughputEstimate EstimateSustainableThroughput(
    const model::SparseDnn& dnn, const FsdOptions& options,
    const cloud::LatencyConfig& latency,
    const cloud::ComputeModelConfig& compute, double activation_density,
    int32_t batch, int32_t max_concurrent_runs, double expected_occupancy);

}  // namespace fsd::core

#endif  // FSD_CORE_COST_MODEL_H_
