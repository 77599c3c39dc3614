// Serving-concurrency benchmark: overlapping multi-query execution vs the
// sequential one-query-at-a-time loop, swept over arrival rate x model
// family.
//
// Three serving modes per (family, rate) cell, all fed the identical
// Poisson arrival trace:
//  - sequential:  RunInference per query; query i cannot start before
//                 query i-1 finished (today's loop; per-run functions, so
//                 every query also pays cold starts)
//  - overlap-cold: ServingRuntime with per-query functions (overlap only)
//  - overlap-warm: ServingRuntime with shared function groups (overlap +
//                 warm-pool reuse across queries)
//
// Expected shapes: at high arrival rates overlapping execution sustains the
// offered load while the sequential loop saturates at 1/service_time, so
// throughput gains grow with the rate (>= 2x at the top rates); warm reuse
// removes the cold-start delay from every query after the first wave. All
// modes must produce identical per-query activations and non-negative
// billing deltas.
//
// closed_loop_queries_per_sec (gated, host wall clock): one client submits a
// query, drains, and submits the next, so every Drain hands back every
// outcome so far. Reports the fastest of three loops.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "core/serving.h"

using namespace fsd;
using bench::ScaleConfig;

namespace {

struct ModeResult {
  double throughput_qps = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double cold_ratio = 0.0;
  double cost = 0.0;
  bool outputs_ok = true;
};

core::InferenceRequest MakeRequest(const bench::Workload& workload,
                                   const part::ModelPartition& partition) {
  core::InferenceRequest request;
  request.dnn = &workload.dnn;
  request.partition = &partition;
  request.batches = {&workload.input};
  request.options.variant = core::Variant::kQueue;
  request.options.num_workers = partition.num_parts;
  return request;
}

bool OutputsMatch(const core::QueryOutputs& outputs,
                  const linalg::ActivationMap& expected) {
  return outputs.size() == 1 && outputs[0] == expected;
}

/// The status quo: a loop that serves one query at a time. Query i starts
/// at max(arrival_i, finish_{i-1}); its latency includes the head-of-line
/// queueing delay.
ModeResult RunSequential(const bench::Workload& workload,
                         const part::ModelPartition& partition,
                         const std::vector<double>& arrivals) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  const std::vector<cloud::BillingLine> before =
      core::SnapshotLedger(cloud.billing());
  ModeResult result;
  std::vector<double> latencies;
  double free_at = 0.0;
  for (double arrival : arrivals) {
    auto report = core::RunInference(&cloud, MakeRequest(workload, partition));
    FSD_CHECK_OK(report.status());
    FSD_CHECK_OK(report->status);
    result.outputs_ok &= OutputsMatch(report->outputs, workload.expected);
    const double start = arrival > free_at ? arrival : free_at;
    free_at = start + report->latency_s;
    latencies.push_back(free_at - arrival);
  }
  const double makespan = free_at - arrivals.front();
  result.throughput_qps =
      makespan > 0.0 ? static_cast<double>(arrivals.size()) / makespan : 0.0;
  result.p50_s = core::Percentile(latencies, 50.0);
  result.p95_s = core::Percentile(latencies, 95.0);
  result.cold_ratio = 1.0;  // per-run functions never find a warm instance
  result.cost = core::DiffLedger(before, cloud.billing()).total_cost;
  return result;
}

ModeResult RunOverlapping(const bench::Workload& workload,
                          const part::ModelPartition& partition,
                          const std::vector<double>& arrivals,
                          bool share_functions) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  core::ServingOptions options;
  options.share_functions = share_functions;
  core::ServingRuntime serving(&cloud, options);
  const core::InferenceRequest request = MakeRequest(workload, partition);
  for (double arrival : arrivals) {
    FSD_CHECK_OK(serving.Submit(request, arrival).status());
  }
  auto report = serving.Drain();
  FSD_CHECK_OK(report.status());
  ModeResult result;
  result.outputs_ok = true;
  for (const core::QueryOutcome& outcome : report->queries) {
    FSD_CHECK_OK(outcome.report.status);
    result.outputs_ok &=
        OutputsMatch(outcome.report.outputs, workload.expected);
  }
  result.throughput_qps = report->fleet.throughput_qps;
  result.p50_s = report->fleet.latency_p50_s;
  result.p95_s = report->fleet.latency_p95_s;
  result.cold_ratio = report->fleet.cold_start_ratio;
  result.cost = report->billing.total_cost;
  return result;
}

/// Host queries per second of a closed loop of `queries` Submit -> Drain
/// rounds on one warm ServingRuntime.
double ClosedLoopQueriesPerSec(const bench::Workload& workload,
                               const part::ModelPartition& partition,
                               int32_t queries) {
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  core::ServingRuntime serving(&cloud);
  const core::InferenceRequest request = MakeRequest(workload, partition);
  const auto start = std::chrono::steady_clock::now();
  for (int32_t i = 0; i < queries; ++i) {
    FSD_CHECK_OK(serving.Submit(request, 0.0).status());
    auto report = serving.Drain();
    FSD_CHECK_OK(report.status());
    FSD_CHECK_EQ(report->queries.size(), static_cast<size_t>(i + 1));
    const core::QueryOutcome& outcome = report->queries.back();
    FSD_CHECK_OK(outcome.report.status);
    FSD_CHECK(OutputsMatch(outcome.report.outputs, workload.expected));
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return static_cast<double>(queries) / elapsed;
}

}  // namespace

int main() {
  const ScaleConfig scale = ScaleConfig::FromEnv();
  const int32_t kWorkers = 8;
  const int32_t kQueries = scale.paper_scale ? 24 : (scale.tiny ? 4 : 10);
  const std::vector<double> rates_qps =
      scale.tiny ? std::vector<double>{1.0}
                 : std::vector<double>{0.25, 1.0, 4.0};

  bench::PrintHeader(
      "SERVING CONCURRENCY — overlapping multi-query execution vs the "
      "sequential loop",
      StrFormat("FSD-Inf-Queue, P=%d, %d queries per cell, Poisson "
                "arrivals; paper_scale=%d",
                kWorkers, kQueries, scale.paper_scale ? 1 : 0));

  const std::vector<int32_t> widths =
      scale.tiny ? std::vector<int32_t>{1024} : std::vector<int32_t>{1024,
                                                                     4096};
  ModeResult last_seq, last_warm;  // top (width, rate) cell, for the JSON
  double last_rate = 0.0;
  for (int32_t neurons : widths) {
    const bench::Workload& workload = bench::GetWorkload(neurons, scale);
    const part::ModelPartition& partition = bench::GetPartition(
        neurons, kWorkers, part::PartitionScheme::kHypergraph, scale);
    std::printf("\nN = %d (L=%d, batch=%d)\n", neurons,
                workload.dnn.layers(), workload.batch);
    std::printf("%9s | %-26s | %-32s | %-32s | %s\n", "rate qps",
                "sequential qps/p95/$", "overlap-cold qps/p95/$/speedup",
                "overlap-warm qps/p95/$/speedup", "cold% warm / outputs");
    bench::PrintRule();

    for (double rate : rates_qps) {
      const std::vector<double> arrivals =
          core::PoissonArrivals(rate, kQueries, /*seed=*/1234 + neurons);
      const ModeResult seq = RunSequential(workload, partition, arrivals);
      const ModeResult cold =
          RunOverlapping(workload, partition, arrivals, false);
      const ModeResult warm =
          RunOverlapping(workload, partition, arrivals, true);
      const bool outputs_ok =
          seq.outputs_ok && cold.outputs_ok && warm.outputs_ok;
      const bool billing_ok =
          seq.cost >= 0.0 && cold.cost >= 0.0 && warm.cost >= 0.0;
      std::printf(
          "%9.2f | %7.3f %7.3fs %-9s | %7.3f %7.3fs %-9s %5.2fx | "
          "%7.3f %7.3fs %-9s %5.2fx | %5.1f%% %s%s\n",
          rate, seq.throughput_qps, seq.p95_s,
          HumanDollars(seq.cost).c_str(), cold.throughput_qps, cold.p95_s,
          HumanDollars(cold.cost).c_str(),
          cold.throughput_qps / seq.throughput_qps, warm.throughput_qps,
          warm.p95_s, HumanDollars(warm.cost).c_str(),
          warm.throughput_qps / seq.throughput_qps, 100.0 * warm.cold_ratio,
          outputs_ok ? "outputs=IDENTICAL" : "outputs=MISMATCH",
          billing_ok ? "" : " billing=NEGATIVE");
      FSD_CHECK(outputs_ok);
      FSD_CHECK(billing_ok);
      last_seq = seq;
      last_warm = warm;
      last_rate = rate;
    }
  }
  // The closed loop runs on the first (smallest) family.
  const int32_t kClosedQueries = scale.tiny ? 32 : 64;
  const bench::Workload& closed_workload =
      bench::GetWorkload(widths.front(), scale);
  const part::ModelPartition& closed_partition = bench::GetPartition(
      widths.front(), kWorkers, part::PartitionScheme::kHypergraph, scale);
  double closed_qps = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    closed_qps = std::max(closed_qps,
                          ClosedLoopQueriesPerSec(closed_workload,
                                                  closed_partition,
                                                  kClosedQueries));
  }
  std::printf("\nclosed loop (N=%d, %d Submit->Drain rounds, best of 3): "
              "%.1f queries/s host wall\n",
              widths.front(), kClosedQueries, closed_qps);

  bench::WriteBenchJson(
      "serving_concurrency",
      {{"rate_qps", last_rate},
       {"sequential_throughput_qps", last_seq.throughput_qps},
       {"sequential_p50_latency_s", last_seq.p50_s},
       {"sequential_p95_latency_s", last_seq.p95_s},
       {"overlap_warm_throughput_qps", last_warm.throughput_qps},
       {"overlap_warm_p50_latency_s", last_warm.p50_s},
       {"overlap_warm_p95_latency_s", last_warm.p95_s},
       {"overlap_warm_cold_start_ratio", last_warm.cold_ratio},
       {"overlap_warm_speedup",
        last_warm.throughput_qps / last_seq.throughput_qps},
       {"closed_loop_queries_per_sec", closed_qps}});
  std::printf(
      "\n%s\n",
      bench::PaperNote("the paper serves one query per deployed stack; "
                      "overlap + warm reuse is the serving-layer extension "
                      "(cf. lambda-scale burst serving)")
          .c_str());
  return 0;
}
