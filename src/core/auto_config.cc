#include "core/auto_config.h"

#include <algorithm>
#include <cmath>

#include "codec/quant.h"
#include "common/strings.h"
#include "core/launcher.h"
#include "core/serialization.h"

namespace fsd::core {
namespace {

/// One op round trip on the backend's data path (medians; relative use).
double OpRoundTripSeconds(const cloud::LatencyConfig& latency,
                          Variant variant, double relay_fraction) {
  switch (variant) {
    case Variant::kSerial:
      return 0.0;
    case Variant::kQueue:
      return latency.pubsub_publish.median_s + latency.pubsub_fanout.median_s +
             latency.queue_receive.median_s;
    case Variant::kObject:
      return latency.object_put.median_s + latency.object_list.median_s +
             latency.object_get.median_s;
    case Variant::kKv:
      return latency.kv_push.median_s + latency.kv_pop.median_s;
    case Variant::kDirect:
      return 2.0 * latency.p2p_send.median_s * (1.0 - relay_fraction) +
             (latency.kv_push.median_s + latency.kv_pop.median_s) *
                 relay_fraction;
  }
  return 0.0;
}

/// Messages the backend's receive side drains per op at the root: queue
/// polls batch 10, KV/fabric pops batch 64, object storage needs one GET
/// per message (spread over the IO lanes).
double RootDrainPerOp(const FsdOptions& options, Variant variant) {
  switch (variant) {
    case Variant::kSerial:
      return 1.0;
    case Variant::kQueue:
      return 10.0;
    case Variant::kObject:
      return static_cast<double>(std::max(1, options.io_lanes));
    case Variant::kKv:
    case Variant::kDirect:
      return 64.0;
  }
  return 1.0;
}

}  // namespace

CollectiveTopology RecommendTopology(const cloud::LatencyConfig& latency,
                                     const FsdOptions& options,
                                     Variant variant, int32_t workers) {
  if (workers <= 2 || variant == Variant::kSerial) {
    return CollectiveTopology::kThroughRoot;
  }
  const double relay =
      variant == Variant::kDirect
          ? std::min(1.0, std::max(0.0, latency.p2p_punch_failure_rate))
          : 0.0;
  const double rt = OpRoundTripSeconds(latency, variant, relay);
  const double drain = RootDrainPerOp(options, variant);
  // Widest round per topology: through-root's single round serializes the
  // root's P-1-message fan-in on its drain batching; tree and ring rounds
  // each move at most one message per worker.
  const double through_root_round =
      rt * (1.0 + static_cast<double>(workers - 1) / drain);
  const double tree_round = 2.0 * rt;  // one recv + one fwd per round
  if (through_root_round <= tree_round) {
    return CollectiveTopology::kThroughRoot;
  }
  // Tree and ring tie on round width; the tree's O(log P) rounds beat the
  // ring's P-1 whenever P > 2.
  return CollectiveTopology::kBinomialTree;
}

Result<AutoSelectResult> AutoSelectConfiguration(
    const cloud::CloudEnv& cloud, const AutoSelectRequest& request) {
  if (request.dnn == nullptr) {
    return Status::InvalidArgument("request needs a model");
  }
  if (request.latency_weight < 0.0 || request.latency_weight > 1.0) {
    return Status::InvalidArgument("latency_weight outside [0, 1]");
  }
  if (request.candidate_workers.empty()) {
    return Status::InvalidArgument("no candidate worker counts");
  }
  const model::SparseDnn& dnn = *request.dnn;
  const cloud::PricingConfig& pricing = cloud.billing().pricing();

  // Serial feasibility: model + working set within the largest instance.
  const double serial_need_mb =
      (dnn.WeightBytes() * 1.6 +
       static_cast<double>(dnn.neurons()) * request.batch * 8.0 * 2.0) /
      (1024.0 * 1024.0);

  std::vector<ConfigCandidate> candidates;
  for (int32_t workers : request.candidate_workers) {
    std::vector<Variant> variants;
    if (workers <= 1) {
      variants = {Variant::kSerial};
    } else {
      variants = {Variant::kQueue, Variant::kObject, Variant::kKv,
                  Variant::kDirect};
    }
    for (Variant variant : variants) {
      ConfigCandidate candidate;
      candidate.variant = variant;
      candidate.workers = workers;
      candidate.topology = RecommendTopology(cloud.latency(),
                                             request.base_options, variant,
                                             workers);
      if (variant == Variant::kSerial && serial_need_mb > 10240.0) {
        candidate.feasible = false;
        candidate.infeasible_reason = StrFormat(
            "needs ~%.0f MB; FaaS cap is 10240 MB", serial_need_mb);
        candidates.push_back(std::move(candidate));
        continue;
      }
      const int32_t memory_mb =
          DefaultWorkerMemoryMb(dnn.neurons(), variant);
      // Cost side: the same cross-boundary volume model as the latency
      // estimate, fed into Eqs. 1-7. Kept in raw (pre-codec) bytes so the
      // wire volume follows whichever codec an evaluation runs.
      const double cross_fraction =
          std::min(1.0, workers / 8.0) * 0.35;
      const double raw_bytes =
          static_cast<double>(dnn.neurons()) * cross_fraction *
          request.activation_density * request.batch * 6.0 * dnn.layers();
      const double pairs =
          static_cast<double>(dnn.layers()) * workers *
          std::min<double>(workers - 1, 10);
      // Latency + cost of this (variant, workers) pair under one concrete
      // option set — run once for the base options and again per quantized
      // width the flip below considers.
      auto evaluate = [&](const FsdOptions& opts, ConfigCandidate* c) {
        c->predicted_latency_s = EstimateQueryLatency(
            dnn, opts, cloud.latency(), cloud.config().compute,
            request.activation_density, request.batch, variant, workers);
        const double total_bytes = raw_bytes * EstimateWireRatio(opts);
        switch (variant) {
          case Variant::kSerial:
            c->predicted_cost =
                SerialCost(pricing, c->predicted_latency_s, memory_mb);
            break;
          case Variant::kQueue: {
            const double chunks = std::max(
                pairs, total_bytes / (64.0 * 1024.0));
            const double api = pairs * 2.0 / 4.0;
            c->predicted_cost =
                QueueCost(pricing, workers, c->predicted_latency_s,
                          memory_mb, chunks, total_bytes, api);
            break;
          }
          case Variant::kObject: {
            const double puts = pairs;
            const double gets = pairs;
            const double lists = 1.8 * dnn.layers() * workers;
            c->predicted_cost =
                ObjectCost(pricing, workers, c->predicted_latency_s,
                           memory_mb, puts, gets, lists);
            break;
          }
          case Variant::kKv: {
            const double chunks = std::max(
                pairs, total_bytes /
                           static_cast<double>(opts.kv_max_value_bytes));
            const double requests = chunks + 1.2 * pairs;
            // The run's namespace stays provisioned for the query duration.
            c->predicted_cost = KvCost(
                pricing, workers, c->predicted_latency_s, memory_mb,
                requests, 2.0 * total_bytes, c->predicted_latency_s);
            break;
          }
          case Variant::kDirect: {
            // Each communicating unordered pair punches one link, billed
            // once whichever side connects first (the fabric keys links by
            // the unordered pair); the environment's punch-failure fraction
            // of traffic relays through the KV cache (requests + processed
            // bytes + the relay namespace's standing node time for the run).
            const double relay = std::min(
                1.0,
                std::max(0.0, cloud.latency().p2p_punch_failure_rate));
            const double connections =
                static_cast<double>(workers) *
                std::min<double>(workers - 1, 10) / 2.0 * (1.0 - relay);
            const double chunks = std::max(
                pairs, total_bytes /
                           static_cast<double>(opts.kv_max_value_bytes));
            const double relay_requests = (chunks + 1.2 * pairs) * relay;
            c->predicted_cost = DirectCost(
                pricing, workers, c->predicted_latency_s, memory_mb,
                connections, total_bytes * (1.0 - relay), relay_requests,
                2.0 * total_bytes * relay);
            const double relay_node_cost =
                c->predicted_latency_s * pricing.kv_node_hourly / 3600.0;
            c->predicted_cost.communication += relay_node_cost;
            c->predicted_cost.total += relay_node_cost;
            break;
          }
        }
      };
      candidate.quant_bits = request.base_options.quant_bits;
      evaluate(request.base_options, &candidate);
      // Quantization flip: within the request's rel-error budget, take the
      // narrowest admissible width — wider widths save strictly fewer
      // bytes for the same quantize CPU — and adopt it when the break-even
      // term nets positive.
      if (request.base_options.quant_bits == 0 &&
          request.base_options.quant_max_rel_error > 0.0) {
        for (int32_t b : {4, 8, 16}) {
          if (codec::QuantRelErrorBound(b) >
              request.base_options.quant_max_rel_error) {
            continue;
          }
          const QuantBreakEvenEstimate be = EstimateQuantBreakEven(
              pricing, cloud.config().compute, request.base_options,
              variant, memory_mb, raw_bytes, b);
          if (be.worthwhile) {
            FsdOptions qopts = request.base_options;
            qopts.quant_bits = b;
            ConfigCandidate quantized = candidate;
            evaluate(qopts, &quantized);
            quantized.predicted_cost.compute += be.cpu_dollars_added;
            quantized.predicted_cost.total += be.cpu_dollars_added;
            if (quantized.predicted_cost.total <
                candidate.predicted_cost.total) {
              quantized.quant_bits = b;
              candidate = quantized;
            }
          }
          break;
        }
      }
      candidates.push_back(std::move(candidate));
    }
  }

  // Normalize and blend.
  double min_latency = -1.0, min_cost = -1.0;
  for (const ConfigCandidate& c : candidates) {
    if (!c.feasible) continue;
    if (min_latency < 0 || c.predicted_latency_s < min_latency) {
      min_latency = c.predicted_latency_s;
    }
    if (min_cost < 0 || c.predicted_cost.total < min_cost) {
      min_cost = c.predicted_cost.total;
    }
  }
  if (min_latency < 0) {
    return Status::FailedPrecondition("no feasible configuration");
  }
  for (ConfigCandidate& c : candidates) {
    if (!c.feasible) {
      c.score = 1e30;
      continue;
    }
    c.score = request.latency_weight *
                  (c.predicted_latency_s / min_latency) +
              (1.0 - request.latency_weight) *
                  (c.predicted_cost.total / std::max(1e-12, min_cost));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const ConfigCandidate& a, const ConfigCandidate& b) {
              return a.score < b.score;
            });
  AutoSelectResult result;
  result.best = candidates.front();
  result.ranking = std::move(candidates);
  return result;
}

}  // namespace fsd::core
