// Partition-cache benchmark: cross-query warm-state reuse (λScale-style)
// on a repeated-family serving workload, cache on vs off.
//
// The workload is the serving sweet spot the cache targets: a stream of
// queries of ONE model family, spaced inside the FaaS keep-alive so every
// query after the first runs on warm instances. With the cache off, each
// of those warm workers still re-reads its entire model share from object
// storage; with the cache on, a worker whose instance already deserialized
// its (family, partition, version) share skips the read outright.
//
// Asserted shapes:
//  - cache hits cut the workers' summed model-load time (every scale)
//  - warm-hit queries beat cache-off on p50 end-to-end latency (quick
//    scale and up)
//  - the workload's projected daily cost drops (fewer GETs + less billed
//    runtime; quick scale and up)
//  - the cost model's predicted object-GET savings (measured hit counts x
//    C_S3(Get)) validate against the billing ledger's cache-off vs
//    cache-on GET delta to < 0.1% (the §VI-F methodology applied to the
//    new cache-aware model-read term)
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "core/serving.h"

using namespace fsd;
using bench::ScaleConfig;

namespace {

struct ModeResult {
  double p50_s = 0.0;
  double p95_s = 0.0;
  double daily_cost = 0.0;
  double cost = 0.0;
  double hit_ratio = 0.0;
  double object_gets = 0.0;      ///< whole-workload ledger GETs
  double model_load_s = 0.0;     ///< summed over every query's workers
  int64_t model_gets_saved = 0;  ///< GETs skipped by cache hits
  int64_t model_bytes_saved = 0;
  bool outputs_ok = true;
};

ModeResult RunMode(const bench::Workload& workload,
                   const part::ModelPartition& partition,
                   const std::vector<double>& arrivals, bool cache_on) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  core::ServingRuntime serving(&cloud);
  core::InferenceRequest request;
  request.dnn = &workload.dnn;
  request.partition = &partition;
  request.batches = {&workload.input};
  // Queue variant: object-storage traffic is then the model reads alone,
  // so the ledger's GET line isolates exactly what the cache saves.
  request.options.variant = core::Variant::kQueue;
  request.options.num_workers = partition.num_parts;
  request.options.partition_cache = cache_on;
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
    for (const core::WorkerMetrics& worker : outcome.report.metrics.workers) {
      result.model_load_s += worker.model_load_s;
    }
  }
  result.p50_s = report->fleet.latency_p50_s;
  result.p95_s = report->fleet.latency_p95_s;
  result.daily_cost = report->fleet.daily_cost;
  result.cost = report->billing.total_cost;
  result.hit_ratio = report->fleet.cache_hit_ratio;
  result.object_gets =
      report->billing.quantity(cloud::BillingDimension::kObjectGet);
  result.model_gets_saved = report->fleet.model_gets_saved;
  result.model_bytes_saved = report->fleet.model_bytes_saved;
  return result;
}

}  // namespace

int main() {
  const ScaleConfig scale = ScaleConfig::FromEnv();
  const int32_t neurons = scale.NeuronsOr(4096);
  const int32_t workers = scale.WorkersOr(8);
  const int32_t queries = scale.tiny ? 8 : 24;
  const bench::Workload& workload = bench::GetWorkload(neurons, scale);
  const part::ModelPartition& partition = bench::GetPartition(
      neurons, workers, part::PartitionScheme::kHypergraph, scale);

  bench::PrintHeader(
      StrFormat("PARTITION CACHE — repeated-family serving, N=%d, P=%d, "
                "%d queries",
                neurons, workers, queries),
      "cross-query warm-state reuse vs every-query-reads (cache off)");

  // One query every 20 s: no overlap between queries, every instance stays
  // inside the keep-alive — the pure warm-reuse regime.
  const std::vector<double> arrivals =
      core::BurstArrivals(/*bursts=*/queries, /*per_burst=*/1, /*gap_s=*/20.0);

  const ModeResult off = RunMode(workload, partition, arrivals, false);
  const ModeResult on = RunMode(workload, partition, arrivals, true);

  std::printf("%-10s | %-10s %-10s | %-12s %-12s | %-7s %-10s %s\n", "mode",
              "p50", "p95", "workload $", "daily $", "hit%", "GETs",
              "bytes saved");
  bench::PrintRule();
  std::printf("%-10s | %8.3fs %8.3fs | %-12s %-12s | %6.1f%% %10.0f %s\n",
              "cache-off", off.p50_s, off.p95_s,
              HumanDollars(off.cost).c_str(),
              HumanDollars(off.daily_cost).c_str(), 100.0 * off.hit_ratio,
              off.object_gets, "-");
  std::printf("%-10s | %8.3fs %8.3fs | %-12s %-12s | %6.1f%% %10.0f %s\n",
              "cache-on", on.p50_s, on.p95_s, HumanDollars(on.cost).c_str(),
              HumanDollars(on.daily_cost).c_str(), 100.0 * on.hit_ratio,
              on.object_gets,
              HumanBytes(static_cast<double>(on.model_bytes_saved)).c_str());

  // --- cost-model validation of the cache-aware GET term (§VI-F style):
  // predicted savings from measured hit counts vs the ledger's GET delta.
  const cloud::PricingConfig pricing;
  const double predicted_gets_saved =
      static_cast<double>(on.model_gets_saved);
  const double ledger_gets_saved = off.object_gets - on.object_gets;
  const double predicted_savings =
      predicted_gets_saved * pricing.object_per_get;
  const double ledger_savings = ledger_gets_saved * pricing.object_per_get;
  const double rel_err =
      std::abs(predicted_savings - ledger_savings) /
      std::max(1e-12, ledger_savings);

  // A-priori projection at the measured hit ratio (the recommender's view).
  const core::ModelReadEstimate estimate = core::EstimateModelReads(
      pricing, workload.dnn, partition, on.hit_ratio);

  std::printf(
      "\npredicted GET savings: %.0f GETs (%s) | ledger: %.0f GETs (%s) | "
      "rel.err %.4f%%\n",
      predicted_gets_saved, HumanDollars(predicted_savings).c_str(),
      ledger_gets_saved, HumanDollars(ledger_savings).c_str(),
      rel_err * 100.0);
  std::printf(
      "a-priori EstimateModelReads @ hit=%.1f%%: %.1f GETs/query issued, "
      "%.1f saved (%s/query)\n",
      100.0 * on.hit_ratio, estimate.get_parts, estimate.gets_saved,
      HumanDollars(estimate.savings).c_str());
  std::printf("model load %.3fs -> %.3fs summed over workers\n",
              off.model_load_s, on.model_load_s);
  std::printf("p50 speedup %.2fx, daily cost %.2fx cheaper, outputs %s\n",
              off.p50_s / on.p50_s, off.daily_cost / on.daily_cost,
              (off.outputs_ok && on.outputs_ok) ? "IDENTICAL" : "MISMATCH");

  bench::WriteBenchJson(
      "partition_cache",
      {{"cache_off_p50_latency_s", off.p50_s},
       {"cache_off_p95_latency_s", off.p95_s},
       {"cache_off_daily_cost", off.daily_cost},
       {"cache_on_p50_latency_s", on.p50_s},
       {"cache_on_p95_latency_s", on.p95_s},
       {"cache_on_daily_cost", on.daily_cost},
       {"cache_hit_ratio", on.hit_ratio},
       {"p50_speedup", off.p50_s / on.p50_s},
       {"get_savings_rel_err", rel_err}});

  // The acceptance claims, asserted. A query waits for its slowest worker.
  // At tiny scale (8 queries) the instances have cached few shares yet, so
  // nearly every query still has a worker that missed, and the cache moves
  // p50 and billed runtime by less than the sampled service latencies move
  // them between the two runs: cache-on wins each in only 14 of the seeds
  // 40-59. At the quick scale it won both at every seed tried (40-49), so
  // they are asserted from there up, and CI runs this bench at that scale.
  // The summed model-load time is the cache's own effect.
  FSD_CHECK(off.outputs_ok);
  FSD_CHECK(on.outputs_ok);
  FSD_CHECK_GT(on.hit_ratio, 0.0);
  FSD_CHECK_LT(on.model_load_s, off.model_load_s);
  if (!scale.tiny) {
    FSD_CHECK_LT(on.p50_s, off.p50_s);
    FSD_CHECK_LT(on.daily_cost, off.daily_cost);
  }
  FSD_CHECK_GT(ledger_gets_saved, 0.0);
  FSD_CHECK_LT(rel_err, 0.001);

  std::printf(
      "\n%s\n",
      bench::PaperNote(
          "the paper's workers re-read their share every query; the cache "
          "is the λScale-style serving extension (arXiv:2502.09922)")
          .c_str());
  return 0;
}
