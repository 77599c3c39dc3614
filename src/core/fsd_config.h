// FSD-Inference runtime configuration (paper §III, §VI-A1).
#ifndef FSD_CORE_FSD_CONFIG_H_
#define FSD_CORE_FSD_CONFIG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "codec/lz.h"

namespace fsd::core {

/// The three FSD-Inference variants evaluated in the paper, plus the
/// in-memory KV extension (FMI-style low-latency channel) and the direct
/// worker-to-worker extension (FMI's NAT-punched TCP links).
enum class Variant : int {
  kSerial = 0,  ///< single FaaS instance, no communication (FSD-Inf-Serial)
  kQueue = 1,   ///< pub-sub + queueing channel (FSD-Inf-Queue)
  kObject = 2,  ///< object storage channel (FSD-Inf-Object)
  kKv = 3,      ///< in-memory KV channel (FSD-Inf-KV)
  kDirect = 4,  ///< NAT-punched direct links + KV relay (FSD-Inf-Direct)
};

std::string_view VariantName(Variant variant);

/// Collective-algorithm topologies (FMI-style). Every topology computes the
/// same Barrier/Reduce/Broadcast results — Reduce is a disjoint-row-set
/// union, so the merge order is immaterial — but they trade per-round
/// message counts against round counts:
///   through-root: 1 round, the root handles P-1 messages (the paper's
///                 star pattern);
///   binomial:     ceil(log2 P) rounds, each worker handles <= 1 message
///                 per round;
///   ring:         P-1 rounds, 1 message per round (chain pipeline).
enum class CollectiveTopology : int {
  kThroughRoot = 0,
  kBinomialTree = 1,
  kRing = 2,
};

std::string_view CollectiveTopologyName(CollectiveTopology topology);

/// Launch-tree construction strategies (§III; hierarchical is the paper's
/// contribution, the others are the ablation baselines it was measured
/// against).
enum class LaunchStrategy : int {
  kHierarchical = 0,  ///< each worker invokes its subtree (branching factor b)
  kTwoLevel = 1,      ///< root invokes "managers" which invoke leaves
  kCentralized = 2,   ///< coordinator invokes every worker in one loop
};

std::string_view LaunchStrategyName(LaunchStrategy strategy);

/// NOTE: when adding a field here, also add it to the serving runtime's
/// BatchFamilyKey (serving.cc) — the cross-query batching aggregator may
/// only coalesce queries whose options fully agree, and the key is an
/// explicit field enumeration.
struct FsdOptions {
  Variant variant = Variant::kQueue;
  /// P: concurrent FaaS workers (the model must be partitioned for this P).
  int32_t num_workers = 8;
  /// Branching factor of the hierarchical invocation tree.
  int32_t branching = 4;
  LaunchStrategy launch = LaunchStrategy::kHierarchical;

  /// Communication resource sharding (paper uses 10 of each: topic-{m%10},
  /// bucket-{n%10}).
  int32_t num_topics = 10;
  int32_t num_buckets = 10;

  /// Prefix namespacing every channel resource (topics, queues, buckets) of
  /// a run. Empty reproduces the paper's shared names; the serving runtime
  /// assigns a per-query scope so concurrent queries cannot cross-deliver.
  std::string channel_scope;

  /// IPC thread-pool lanes per worker (ThreadPoolExecutor in the paper).
  int32_t io_lanes = 8;

  /// SQS long-poll wait W in seconds (0 selects short polling).
  double poll_wait_s = 5.0;
  /// Back-off between object-store folder scans while data is outstanding.
  double object_scan_interval_s = 0.02;

  /// Per-message payload cap for the queue channel. Slightly under the
  /// 256 KiB publish cap to leave room for attributes/envelope.
  uint64_t max_message_bytes = 224 * 1024;
  /// Pack multiple row chunks per publish batch (NNZ-heuristic greedy
  /// packing); disabled = one message per publish (ablation).
  bool greedy_packing = true;

  /// Compress payloads (FsdLz, the paper's ZLIB stage); ablation knob.
  bool compress = true;
  /// Moderate match effort by default (zlib level ~6 equivalent): channel
  /// payloads are latency-sensitive, and ratio gains flatten quickly on
  /// sparse-row data.
  codec::LzOptions codec{.max_chain_probes = 8};
  /// Bounded-error activation transport: quantize payload values to this
  /// many bits (2..16) before entropy coding. 0 keeps the default lossless
  /// wire format (bit-exact round trip). Quantization changes query
  /// outputs within codec::QuantRelErrorBound(quant_bits) of each chunk's
  /// max |value|, so it must be opted into per workload — either directly
  /// or by AutoSelectConfiguration when quant_max_rel_error permits.
  int32_t quant_bits = 0;
  /// Relative-error budget that authorizes AutoSelectConfiguration to turn
  /// quantization on: the widest-saving width whose QuantRelErrorBound
  /// fits the budget is selected when the cost model predicts a net win.
  /// <= 0 keeps auto-config lossless (the default).
  double quant_max_rel_error = 0.0;

  /// Skip 0-byte ".nul" markers when reading (object channel optimization;
  /// ablation knob).
  bool nul_markers = true;

  /// KV channel: per-value payload cap (in-memory caches favor small
  /// items; large values monopolize a cluster slot).
  uint64_t kv_max_value_bytes = 128 * 1024;
  /// Blocking-pop wait for the KV channel (BLPOP timeout analogue). Short
  /// relative to poll_wait_s: KV wakeups are cheap, and short waits keep
  /// abort draining prompt.
  double kv_poll_wait_s = 1.0;
  /// Cluster shards of the per-run KV namespace (raises the aggregate
  /// request-rate cap, like topic/bucket sharding).
  int32_t kv_shards = 4;

  /// Topology the collective operations (barrier/reduce/broadcast tails of
  /// each batch) run over. Through-root reproduces the paper's star
  /// pattern; binomial/ring bound the root's per-round fan-in at the price
  /// of extra rounds (each round consumes its own phase id, so the
  /// per-batch phase budget grows with the topology's round count).
  CollectiveTopology collective_topology = CollectiveTopology::kThroughRoot;

  /// Direct channel (FSD-Inf-Direct): blocking-pop wait against the P2P
  /// fabric inbox. The receive loop alternates fabric and KV-relay pops,
  /// so both waits stay short to keep abort draining prompt.
  double direct_poll_wait_s = 0.5;

  /// --- cross-query partition cache (λScale-style warm-state reuse) ---
  /// A warm worker instance that already deserialized its model share for
  /// an earlier query of the same family skips the object-storage read.
  /// Off reproduces the paper's every-query-reads behaviour (ablation).
  bool partition_cache = true;
  /// Per-instance byte budget for cached shares; LRU eviction beyond it.
  /// The effective budget is additionally capped at half the worker
  /// instance's memory (a 1000 MB function cannot keep 2 GiB of shares
  /// resident), so this default simply means "as much as the instance
  /// affords". 0 disables caching outright.
  uint64_t partition_cache_budget_bytes = 2ull * 1024 * 1024 * 1024;
  /// Identity of the model this request serves. Queries sharing a family
  /// (and version) may reuse each other's cached shares, so the family
  /// must uniquely identify the weights. Empty derives a stable identity
  /// from the full generator config in PrepareRunState; either way the
  /// runtime additionally qualifies the family with a fingerprint of the
  /// partition layout, so different partitionings never alias.
  std::string model_family;
  /// Version of the family's weights. Bump on any weight update: a warm
  /// instance holding a share of another version invalidates it and
  /// re-reads (stale weights must never serve).
  uint64_t model_version = 0;

  /// --- serving SLO class (scheduler pipeline; see core/scheduler.h) ---
  /// Pure scheduling metadata: these knobs never reach the RunState, so
  /// they are deliberately NOT part of the serving BatchFamilyKey —
  /// queries in different SLO classes (or of different tenants) still
  /// coalesce into shared trees.
  /// Relative SLO deadline in seconds from submission (<= 0 = none). The
  /// serving runtime turns it into an absolute deadline at arrival: the
  /// EDF queue policy orders by it, the batcher flushes a coalescing batch
  /// early when the oldest member's slack (deadline minus predicted
  /// execution time) runs out, and FleetStats reports attainment.
  double slo_deadline_s = 0.0;
  /// Scheduling priority class (higher = more important). Under overload
  /// with ShedPolicy::kShedLowestPriority, queued low-priority queries are
  /// shed to admit higher-priority arrivals; FleetStats reports latency
  /// percentiles per class.
  int32_t priority = 0;
  /// Tenant this query bills/schedules under (0 = the default tenant).
  /// Scheduling metadata like the two knobs above: the tenant-quota
  /// admission stage (ServingOptions::tenant_quotas) rate-limits and
  /// fair-shares per tenant, and FleetStats reports a per-tenant
  /// disposition/latency breakdown — but the worker tree never sees it,
  /// so cross-tenant queries of one model family still batch together.
  int32_t tenant_id = 0;

  /// --- cross-query batching (serving-layer coalescing) ---
  /// Whether the serving runtime's batch aggregator may coalesce this
  /// query with concurrent same-family queries into one shared worker
  /// tree (ServingOptions::batch_window_s must also be > 0). Opt out for
  /// latency-critical queries that must never wait out a coalescing
  /// window behind peers. Per-query outputs are byte-identical either
  /// way; only scheduling and cost attribution change.
  bool cross_query_batching = true;

  /// Worker function sizing. <= 0 selects the paper's schedule via
  /// DefaultWorkerMemoryMb(neurons).
  int32_t worker_memory_mb = 0;
  double worker_timeout_s = 900.0;
  /// Coordinator function memory (lightweight parser/launcher).
  int32_t coordinator_memory_mb = 128;

  uint64_t seed = 1234;
};

/// The paper's memory schedule: 1000/1500/2000/4000 MB for
/// N = 1024/4096/16384/65536; FSD-Inf-Serial uses the 10240 MB maximum.
int32_t DefaultWorkerMemoryMb(int32_t neurons, Variant variant);

/// S3 multipart read chunk used when streaming a model share from object
/// storage. Shared by the worker read path and the cost model's GET
/// sizing: one billed GET per started part.
inline constexpr uint64_t kModelReadPartBytes = 16ull * 1024 * 1024;

/// Billed multipart GETs for a share of `share_bytes` bytes.
inline constexpr uint64_t ModelReadGetParts(uint64_t share_bytes) {
  const uint64_t parts =
      (share_bytes + kModelReadPartBytes - 1) / kModelReadPartBytes;
  return parts > 0 ? parts : 1;
}

}  // namespace fsd::core

#endif  // FSD_CORE_FSD_CONFIG_H_
