// Collective-scaling bench: comm time PER ROUND of the Barrier + Reduce +
// Broadcast cycle, swept over fleet size for every backend x topology.
//
// A P-worker fleet runs repeated collective iterations over the raw
// channel API (no model compute): barrier, reduce of one small row per
// worker, broadcast of the gathered map. One iteration executes
// 4 * CollectiveRounds(topology, P) rounds (two barrier ops + reduce +
// broadcast), so per-round time = iteration critical path / round count —
// the straggler-exposure metric RecommendTopology minimizes: through-root
// packs the whole fan-in (and the root's fan-out) into ONE wide round,
// while the tree/ring spread it over many rounds that each move one
// message per worker.
//
// Expected shapes, asserted at the sweep's largest P (>= 16):
//  - tree (or ring) beats through-root per-round time on all four backends
//  - the direct channel beats KV end-to-end on this chatty small-payload
//    workload: punched links shave the per-op service hop, and the cycle
//    is nothing but small ops
#include <cstdio>
#include <functional>
#include <map>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "core/channel.h"
#include "core/collectives.h"
#include "core/metrics.h"

using namespace fsd;
using bench::ScaleConfig;

namespace {

struct CollectiveResult {
  double round_p50_ms = 0.0;  ///< p50 over iterations of iter / rounds
  double iter_p50_ms = 0.0;   ///< p50 full-cycle critical path
  int64_t relay_fallbacks = 0;
  bool payloads_ok = true;
};

/// Appends the one row worker `worker_id` owns to `out`.
void AppendOwnedRow(int32_t worker_id, linalg::ActivationRows* out) {
  int32_t idx[8];
  float val[8];
  for (int32_t j = 0; j < 8; ++j) {
    idx[j] = j;
    val[j] = static_cast<float>(worker_id) + 0.125f * j;
  }
  out->Append(worker_id, 8, idx, val, 8);
}

CollectiveResult RunCollectiveCycle(core::Variant variant,
                                    core::CollectiveTopology topology,
                                    int32_t workers, int32_t iters) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  core::FsdOptions options;
  options.variant = variant;
  options.collective_topology = topology;
  options.num_workers = workers;
  options.poll_wait_s = 2.0;
  options.kv_poll_wait_s = 0.5;
  options.direct_poll_wait_s = 0.5;
  options.object_scan_interval_s = 0.005;
  FSD_CHECK_OK(core::ProvisionChannelResources(&cloud, options));

  linalg::ActivationRows everyone;
  for (int32_t w = 0; w < workers; ++w) AppendOwnedRow(w, &everyone);
  const int32_t rounds_per_op = core::CollectiveRounds(topology, workers);
  const int32_t phases_per_iter =
      core::PhaseAllocator(0, 0, rounds_per_op).phases_per_batch();
  const int32_t rounds_per_iter =
      static_cast<int32_t>(core::kCollectiveOpCount) * rounds_per_op;

  CollectiveResult result;
  std::vector<double> iter_samples;
  core::RunMetrics metrics;
  metrics.workers.resize(workers);

  for (int32_t worker_id = 0; worker_id < workers; ++worker_id) {
    cloud::FaasFunctionConfig fn;
    fn.name = StrFormat("coll-%d", worker_id);
    fn.memory_mb = 2048;
    fn.timeout_s = 600.0;
    fn.handler = [&, worker_id](cloud::FaasContext* ctx) {
      std::unique_ptr<core::CommChannel> channel =
          core::MakeCommChannel(variant);
      core::WorkerEnv env;
      env.faas = ctx;
      env.cloud = &cloud;
      env.options = &options;
      env.metrics = &metrics.workers[worker_id];
      env.worker_id = worker_id;
      linalg::ActivationRows mine;
      AppendOwnedRow(worker_id, &mine);
      for (int32_t it = 0; it < iters; ++it) {
        const core::PhaseAllocator phases(it * phases_per_iter, 0,
                                          rounds_per_op);
        const double t0 = sim.Now();
        FSD_CHECK_OK(core::Barrier(
            channel.get(), &env, topology,
            phases.Block(core::CollectiveOp::kBarrierArrive),
            phases.Block(core::CollectiveOp::kBarrierRelease), workers));
        auto gathered = core::Reduce(
            channel.get(), &env, topology,
            phases.Block(core::CollectiveOp::kReduce), workers, mine);
        FSD_CHECK_OK(gathered.status());
        auto echoed = core::Broadcast(
            channel.get(), &env, topology,
            phases.Block(core::CollectiveOp::kBroadcast), workers,
            worker_id == 0 ? *gathered : linalg::ActivationRows{});
        FSD_CHECK_OK(echoed.status());
        result.payloads_ok &= (*echoed == everyone);
        if (worker_id == 0) {
          result.payloads_ok &= (*gathered == everyone);
          iter_samples.push_back(sim.Now() - t0);
        }
      }
      ctx->set_result(Status::OK());
    };
    FSD_CHECK_OK(cloud.faas().RegisterFunction(fn));
  }
  sim.AddProcess("kickoff", [&]() {
    for (int32_t w = 0; w < workers; ++w) {
      cloud.faas().InvokeAsync(StrFormat("coll-%d", w), {});
    }
  });
  sim.Run();
  FSD_CHECK_OK(core::TeardownChannelResources(&cloud, options));

  metrics.Finalize();
  result.relay_fallbacks = metrics.totals.relay_fallback_msgs;
  result.iter_p50_ms = core::Percentile(iter_samples, 50.0) * 1e3;
  result.round_p50_ms =
      result.iter_p50_ms / static_cast<double>(rounds_per_iter);
  return result;
}

}  // namespace

int main() {
  const ScaleConfig scale = ScaleConfig::FromEnv();
  const int32_t iters = scale.tiny ? 5 : 12;
  const std::vector<int32_t> worker_counts = scale.WorkerCounts();
  const int32_t max_p = worker_counts.back();

  const core::Variant backends[] = {core::Variant::kQueue,
                                    core::Variant::kObject, core::Variant::kKv,
                                    core::Variant::kDirect};
  struct TopoSpec {
    core::CollectiveTopology topology;
    const char* label;
  };
  const TopoSpec topologies[] = {
      {core::CollectiveTopology::kThroughRoot, "root"},
      {core::CollectiveTopology::kBinomialTree, "tree"},
      {core::CollectiveTopology::kRing, "ring"},
  };

  bench::PrintHeader(
      "COLLECTIVE SCALING — comm time per round by backend x topology",
      StrFormat("barrier+reduce+broadcast cycle, %d iterations per cell; "
                "per-round = cycle critical path / (4 ops x rounds/op)",
                iters));

  // results[{backend index, topology index}] at each P.
  std::map<int32_t, std::map<std::pair<int, int>, CollectiveResult>> results;
  for (int32_t workers : worker_counts) {
    std::printf("\nP = %d   (rounds/op: root=1 tree=%d ring=%d)\n", workers,
                core::CollectiveRounds(core::CollectiveTopology::kBinomialTree,
                                       workers),
                core::CollectiveRounds(core::CollectiveTopology::kRing,
                                       workers));
    std::printf("%-10s | %-22s %-22s %-22s\n", "Backend",
                "root rnd/iter ms", "tree rnd/iter ms", "ring rnd/iter ms");
    bench::PrintRule();
    for (size_t b = 0; b < 4; ++b) {
      std::string row = StrFormat(
          "%-10s |", std::string(core::VariantName(backends[b])).c_str());
      for (size_t t = 0; t < 3; ++t) {
        const CollectiveResult r = RunCollectiveCycle(
            backends[b], topologies[t].topology, workers, iters);
        FSD_CHECK(r.payloads_ok);
        results[workers][{static_cast<int>(b), static_cast<int>(t)}] = r;
        row += StrFormat(" %8.3f /%9.2f  ", r.round_p50_ms, r.iter_p50_ms);
      }
      std::printf("%s\n", row.c_str());
    }
  }

  const auto& at_max = results[max_p];
  std::printf("\nat P=%d:\n", max_p);
  for (size_t b = 0; b < 4; ++b) {
    const double root = at_max.at({static_cast<int>(b), 0}).round_p50_ms;
    const double tree = at_max.at({static_cast<int>(b), 1}).round_p50_ms;
    const double ring = at_max.at({static_cast<int>(b), 2}).round_p50_ms;
    std::printf("  %-8s per-round p50: root %.3f ms, tree %.3f ms, "
                "ring %.3f ms\n",
                std::string(core::VariantName(backends[b])).c_str(), root,
                tree, ring);
    if (max_p >= 16) {
      // The acceptance shape: spreading the fan-in over bounded rounds
      // must narrow the widest round on every backend once P is large.
      FSD_CHECK_LT(std::min(tree, ring), root);
    }
  }
  const double kv_iter = at_max.at({2, 0}).iter_p50_ms;
  const double direct_iter = at_max.at({3, 0}).iter_p50_ms;
  std::printf("  chatty cycle p50: direct %.2f ms vs kv %.2f ms "
              "(relay fallbacks: %lld)\n",
              direct_iter, kv_iter,
              static_cast<long long>(at_max.at({3, 0}).relay_fallbacks));
  if (max_p >= 16) {
    // FSD-Inf-Direct's pitch on a chatty phase mix: no per-op service hop.
    FSD_CHECK_LT(direct_iter, kv_iter);
  }

  std::vector<std::pair<std::string, double>> json;
  for (size_t b = 0; b < 4; ++b) {
    for (size_t t = 0; t < 3; ++t) {
      const auto& r = at_max.at({static_cast<int>(b), static_cast<int>(t)});
      const std::string prefix =
          StrFormat("%s_%s", std::string(core::VariantName(backends[b])).c_str(),
                    topologies[t].label);
      json.emplace_back(prefix + "_round_p50_ms", r.round_p50_ms);
      json.emplace_back(prefix + "_iter_p50_ms", r.iter_p50_ms);
    }
  }
  bench::WriteBenchJson("collective_scaling", json);
  std::printf(
      "\n%s\n",
      bench::PaperNote(
          "the paper's collectives are through-root over managed services; "
          "the tree/ring topologies and the NAT-punched direct links are "
          "the FMI-style extension this bench sizes")
          .c_str());
  return 0;
}
