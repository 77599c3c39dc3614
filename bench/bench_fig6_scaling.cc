// Reproduces paper Figure 6: per-sample runtime and per-sample cost of
// FSD-Inf-Queue and FSD-Inf-Object as worker parallelism P grows, for each
// model width N.
//
// Paper shapes to reproduce:
//  - small N (1024, 4096): parallelism does not pay; fewer workers are
//    better on both axes
//  - N = 16384: runtime improves up to a mid-range P, then degrades
//  - N = 65536: runtime keeps improving toward P = 62
//  - object-channel cost grows ~linearly with P and is roughly independent
//    of N; queue-channel cost grows much more slowly with P
#include <cstdio>

#include "bench/bench_common.h"
#include "common/strings.h"

using namespace fsd;
using bench::ScaleConfig;

int main() {
  const ScaleConfig scale = ScaleConfig::FromEnv();
  bench::PrintHeader(
      "FIGURE 6 — Per-sample runtime and cost of FSD-Inf-Queue / "
      "FSD-Inf-Object vs workers",
      StrFormat("layers/batch per N are scale-reduced (see bench/README.md); "
                "paper_scale=%d",
                scale.paper_scale ? 1 : 0));

  for (int32_t neurons : scale.NeuronCounts()) {
    const bench::Workload& workload = bench::GetWorkload(neurons, scale);
    std::printf("\nN = %d (L=%d, batch=%d)\n", neurons,
                workload.dnn.layers(), workload.batch);
    std::printf("%4s | %-12s %-14s | %-12s %-14s\n", "P", "queue ms/smp",
                "queue $/smp", "object ms/smp", "object $/smp");
    bench::PrintRule();
    for (int32_t workers : scale.WorkerCounts()) {
      const part::ModelPartition& partition = bench::GetPartition(
          neurons, workers, part::PartitionScheme::kHypergraph, scale);
      double ms[2] = {0, 0};
      double cost[2] = {0, 0};
      bool failed[2] = {false, false};
      const core::Variant variants[2] = {core::Variant::kQueue,
                                         core::Variant::kObject};
      for (int v = 0; v < 2; ++v) {
        core::FsdOptions options;
        options.variant = variants[v];
        options.num_workers = workers;
        core::InferenceReport report =
            bench::RunFsd(workload, partition, options);
        if (!report.status.ok()) {
          failed[v] = true;
          continue;
        }
        ms[v] = report.per_sample_ms;
        cost[v] = report.billing.total_cost / report.total_samples;
      }
      std::printf("%4d | %-12s %-14s | %-12s %-14s\n", workers,
                  failed[0] ? "FAILED" : StrFormat("%.3f", ms[0]).c_str(),
                  failed[0] ? "-" : StrFormat("%.3e", cost[0]).c_str(),
                  failed[1] ? "FAILED" : StrFormat("%.3f", ms[1]).c_str(),
                  failed[1] ? "-" : StrFormat("%.3e", cost[1]).c_str());
    }
  }
  std::printf(
      "\nPaper shapes: object cost grows ~linearly in P (request-count "
      "pricing);\nqueue cost grows much more slowly; N=16384 has a "
      "mid-range optimal P;\nN=65536 keeps improving toward P=62.\n");
  return 0;
}
