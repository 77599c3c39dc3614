// Sporadic inference workload (the paper's §I / §VI-C motivating scenario):
// ad-hoc queries over mixed model sizes arrive irregularly through a day.
// The queries are served CONCURRENTLY by one ServingRuntime on one simulated
// cloud — morning-burst queries overlap and reuse each other's warm
// instances — and the day's serverless bill is compared against keeping an
// always-on server fleet or booting job-scoped VMs.
//
//   $ ./examples/sporadic_workload
#include <cstdio>
#include <map>

#include "baselines/server.h"
#include "cloud/cloud.h"
#include "common/strings.h"
#include "core/auto_config.h"
#include "core/serving.h"
#include "model/input_gen.h"

int main() {
  using namespace fsd;

  // Two model families a day of queries alternates between.
  struct Family {
    model::SparseDnn dnn;
    part::ModelPartition partition;
    part::ModelPartition serial_partition;
    linalg::ActivationMap input;
    core::Variant recommended;
  };
  sim::Simulation sim;
  cloud::CloudEnv cloud(&sim);
  std::map<int32_t, Family> families;
  for (int32_t neurons : {1024, 4096}) {
    model::SparseDnnConfig mc;
    mc.neurons = neurons;
    mc.layers = 16;
    auto dnn = model::GenerateSparseDnn(mc);
    part::ModelPartitionOptions po;
    auto partition = part::PartitionModel(*dnn, 12, po);
    auto serial = part::PartitionModel(*dnn, 1, po);
    model::InputConfig ic;
    ic.neurons = neurons;
    ic.batch = 96;
    auto input = model::GenerateInputBatch(ic);
    // Pick the variant on the live model, before it moves into the family.
    core::AutoSelectRequest select;
    select.dnn = &*dnn;
    select.batch = ic.batch;
    select.candidate_workers = {1, 12};
    auto choice = core::AutoSelectConfiguration(cloud, select);
    if (!choice.ok()) {
      std::printf("auto-select failed: %s\n",
                  choice.status().ToString().c_str());
      return 1;
    }
    families.emplace(neurons, Family{std::move(*dnn), std::move(*partition),
                                     std::move(*serial), std::move(*input),
                                     choice->best.variant});
  }

  // A sporadic day: bursts in the morning, quiet afternoon, evening spike.
  // Queries 0.1 h apart overlap in flight and share warm instances.
  struct Query {
    double hour;
    int32_t neurons;
  };
  const std::vector<Query> day = {
      {0.4, 1024}, {2.1, 4096},  {2.2, 4096},  {2.3, 1024}, {9.0, 4096},
      {9.1, 1024}, {15.7, 4096}, {21.0, 1024}, {21.1, 4096}, {21.2, 4096},
  };

  // Submit the whole day up front; the serving runtime executes each query
  // at its arrival time, overlapping whatever is in flight.
  core::ServingRuntime serving(&cloud);
  for (const Query& query : day) {
    const Family& family = families.at(query.neurons);
    core::InferenceRequest request;
    request.dnn = &family.dnn;
    const bool serial = family.recommended == core::Variant::kSerial;
    request.partition =
        serial ? &family.serial_partition : &family.partition;
    request.batches = {&family.input};
    request.options.variant = family.recommended;
    request.options.num_workers = serial ? 1 : 12;
    auto id = serving.Submit(request, query.hour * 3600.0);
    if (!id.ok()) {
      std::printf("submit failed: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  auto report = serving.Drain();
  if (!report.ok()) {
    std::printf("drain failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("%-6s %-7s %-16s %-12s %-10s %-12s\n", "hour", "N", "variant",
              "latency s", "cold", "query $ (model)");
  double js_daily = 0.0;
  for (size_t q = 0; q < day.size(); ++q) {
    const Query& query = day[q];
    const Family& family = families.at(query.neurons);
    const core::QueryOutcome& outcome = report->queries[q];
    if (!outcome.report.status.ok()) {
      std::printf("%.1f    query failed: %s\n", query.hour,
                  outcome.report.status.ToString().c_str());
      continue;
    }
    // Per-query dollars under concurrency come from the validated cost
    // model (§VI-F); the shared ledger is only separable fleet-wide.
    std::printf("%-6.1f %-7d %-16s %-12.3f %-10s %-12s\n", query.hour,
                query.neurons,
                std::string(core::VariantName(family.recommended)).c_str(),
                outcome.report.latency_s,
                outcome.report.metrics.cold_starts > 0 ? "cold" : "warm",
                HumanDollars(outcome.report.predicted.total).c_str());

    // What the same query costs on a job-scoped VM.
    sim::Simulation js_sim;
    cloud::CloudEnv js_cloud(&js_sim);
    baselines::ServerRunOptions js;
    js.job_scoped = true;
    js.residence = baselines::ModelResidence::kObject;
    auto js_report = baselines::RunServerInference(&js_cloud, family.dnn,
                                                   family.input, js);
    if (js_report.ok()) js_daily += js_report->job_cost;
  }

  std::printf("\nFleet: %s\n", report->fleet.Summary().c_str());

  const double always_on_daily =
      2 * 24.0 * cloud.billing().pricing().vm_hourly.at("c5.12xlarge");
  std::printf("\nDaily bill for this sporadic mix:\n");
  std::printf("  FSD-Inference (auto-variant, serving runtime): %s\n",
              HumanDollars(report->billing.total_cost).c_str());
  std::printf("  Server-Job-Scoped           : %s (plus ~1 min boot per "
              "query)\n",
              HumanDollars(js_daily).c_str());
  std::printf("  Server-Always-On (2x c5.12xlarge): %s\n",
              HumanDollars(always_on_daily).c_str());
  return 0;
}
