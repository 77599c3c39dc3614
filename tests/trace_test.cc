// Workload-trace tests: generator determinism and statistical shape,
// serialization round-trips, and a serving-level replay asserting
// per-tenant quota enforcement and the FleetStats tenant partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "cloud/cloud.h"
#include "common/strings.h"
#include "core/serving.h"
#include "core/trace.h"
#include "model/input_gen.h"
#include "model/reference.h"

namespace fsd::core {
namespace {

TraceConfig TwoTenantConfig() {
  TraceConfig config;
  config.duration_s = 200.0;
  config.base_rate_qps = 50.0;
  config.diurnal_amplitude = 0.4;
  config.diurnal_period_s = 100.0;
  config.seed = 42;
  TenantSpec gold;
  gold.tenant = 1;
  gold.name = "gold";
  gold.qps_share = 3.0;
  gold.priority = 2;
  gold.slo_deadline_s = 5.0;
  TenantSpec bronze;
  bronze.tenant = 2;
  bronze.name = "bronze";
  bronze.qps_share = 1.0;
  bronze.quota_qps = 2.0;
  config.tenants = {gold, bronze};
  return config;
}

TEST(Trace, GenerationIsDeterministicPerSeed) {
  const TraceConfig config = TwoTenantConfig();
  auto a = GenerateTrace(config);
  auto b = GenerateTrace(config);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(SerializeTrace(*a), SerializeTrace(*b));
  ASSERT_GT(a->queries.size(), 1000u);

  TraceConfig reseeded = config;
  reseeded.seed = 43;
  auto c = GenerateTrace(reseeded);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(SerializeTrace(*a), SerializeTrace(*c));
}

TEST(Trace, ArrivalsAreSortedAndInRange) {
  auto trace = GenerateTrace(TwoTenantConfig());
  ASSERT_TRUE(trace.ok());
  double last = 0.0;
  for (const TraceQuery& q : trace->queries) {
    EXPECT_GE(q.arrival_s, last);
    EXPECT_LT(q.arrival_s, trace->config.duration_s);
    EXPECT_TRUE(q.tenant == 1 || q.tenant == 2);
    last = q.arrival_s;
  }
}

TEST(Trace, DiurnalSinusoidShapesTheRate) {
  TraceConfig config;
  config.duration_s = 400.0;
  config.base_rate_qps = 100.0;
  config.diurnal_amplitude = 0.8;
  config.diurnal_period_s = 400.0;  // one full cycle over the trace
  config.diurnal_phase = 0.0;
  config.seed = 7;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  // sin peaks at t=100 (rate 180 qps) and troughs at t=300 (rate 20 qps):
  // a 9x count ratio between symmetric windows around them.
  int peak = 0, trough = 0;
  for (const TraceQuery& q : trace->queries) {
    if (q.arrival_s >= 80.0 && q.arrival_s < 120.0) ++peak;
    if (q.arrival_s >= 280.0 && q.arrival_s < 320.0) ++trough;
  }
  EXPECT_GT(peak, trough * 5);  // 9x expected; 5x leaves Poisson noise room
  EXPECT_NEAR(TraceRateAt(config, 100.0), 180.0, 1e-9);
  EXPECT_NEAR(TraceRateAt(config, 300.0), 20.0, 1e-9);
}

TEST(Trace, FlashCrowdMultipliesTheRate) {
  TraceConfig config;
  config.duration_s = 100.0;
  config.base_rate_qps = 40.0;
  config.seed = 9;
  FlashCrowd crowd;
  crowd.start_s = 40.0;
  crowd.duration_s = 20.0;
  crowd.rate_multiplier = 5.0;
  config.flash_crowds = {crowd};
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  int inside = 0, before = 0;
  for (const TraceQuery& q : trace->queries) {
    if (q.arrival_s >= 40.0 && q.arrival_s < 60.0) ++inside;
    if (q.arrival_s >= 10.0 && q.arrival_s < 30.0) ++before;
  }
  // Same-width windows: the crowd window should hold ~5x the arrivals.
  EXPECT_GT(inside, before * 3);
  EXPECT_NEAR(TraceRateAt(config, 50.0), 200.0, 1e-9);
  EXPECT_NEAR(TraceRateAt(config, 70.0), 40.0, 1e-9);
}

TEST(Trace, TenantSharesAreConservedWithinTolerance) {
  const TraceConfig config = TwoTenantConfig();  // 3:1 gold:bronze
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  std::map<int32_t, int> counts;
  for (const TraceQuery& q : trace->queries) ++counts[q.tenant];
  const double total = static_cast<double>(trace->queries.size());
  EXPECT_NEAR(counts[1] / total, 0.75, 0.05);
  EXPECT_NEAR(counts[2] / total, 0.25, 0.05);
}

TEST(Trace, MaxQueriesCapsGeneration) {
  TraceConfig config = TwoTenantConfig();
  config.max_queries = 100;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->queries.size(), 100u);
}

TEST(Trace, RejectsInvalidConfigs) {
  TraceConfig config;
  config.duration_s = -1.0;
  EXPECT_FALSE(GenerateTrace(config).ok());
  config = TraceConfig{};
  config.diurnal_amplitude = 1.5;
  EXPECT_FALSE(GenerateTrace(config).ok());
  config = TraceConfig{};
  config.tenants = {TenantSpec{}, TenantSpec{}};  // both id 0
  EXPECT_FALSE(GenerateTrace(config).ok());
}

TEST(Trace, SerializationRoundTripsExactly) {
  TraceConfig config = TwoTenantConfig();
  config.flash_crowds = {FlashCrowd{13.25, 7.5, 3.75}};
  config.max_queries = 5000;
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  const std::string text = SerializeTrace(*trace);
  auto parsed = ParseTrace(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // %.17g doubles round-trip exactly: re-serializing must be stable.
  EXPECT_EQ(SerializeTrace(*parsed), text);
  EXPECT_EQ(parsed->queries.size(), trace->queries.size());
  EXPECT_EQ(parsed->config.tenants.size(), 2u);
  EXPECT_EQ(parsed->config.tenants[0].name, "gold");
  EXPECT_EQ(parsed->config.tenants[1].quota_qps, 2.0);

  const std::string path = testing::TempDir() + "/fsd_trace_roundtrip.txt";
  ASSERT_TRUE(SaveTrace(*trace, path).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeTrace(*loaded), text);

  EXPECT_FALSE(ParseTrace("not a trace").ok());
  EXPECT_FALSE(LoadTrace(path + ".missing").ok());
}

TEST(Trace, ParseRejectsWhatGenerateRejects) {
  // Each config GenerateTrace refuses must not load from a trace file
  // either: TraceTenantQuotas would quota-limit the default tenant 0 or
  // keep only the last duplicate's bucket.
  std::vector<TraceConfig> invalid;
  TenantSpec tenant;
  tenant.tenant = 1;
  TraceConfig config;
  config.tenants = {tenant};
  config.tenants[0].tenant = 0;  // the default tenant's id
  invalid.push_back(config);
  config.tenants = {tenant, tenant};  // duplicate id
  invalid.push_back(config);
  config.tenants = {tenant};
  config.tenants[0].qps_share = 0.0;
  invalid.push_back(config);
  config.tenants[0].qps_share = -1.0;
  invalid.push_back(config);
  config.tenants = {tenant};
  config.flash_crowds = {FlashCrowd{1.0, -2.0, 3.0}};
  invalid.push_back(config);
  config.flash_crowds = {FlashCrowd{1.0, 2.0, -3.0}};
  invalid.push_back(config);
  for (size_t i = 0; i < invalid.size(); ++i) {
    EXPECT_FALSE(GenerateTrace(invalid[i]).ok()) << "config " << i;
    auto parsed = ParseTrace(SerializeTrace(WorkloadTrace{invalid[i], {}}));
    ASSERT_FALSE(parsed.ok()) << "config " << i;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << "config " << i;
  }

  // A negative arrival fails at parse time, naming its line, instead of
  // failing ReplayTrace after the earlier queries were submitted.
  WorkloadTrace trace;
  trace.config.tenants = {tenant};
  trace.queries = {TraceQuery{0.5, 1}, TraceQuery{-1.0, 1}};
  const std::string text = SerializeTrace(trace);
  ASSERT_TRUE(
      ParseTrace(SerializeTrace(WorkloadTrace{trace.config, {}})).ok());
  const size_t bad_line =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
  auto parsed = ParseTrace(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(StrFormat("line %zu", bad_line)),
            std::string::npos)
      << parsed.status().ToString();
}

// --- serving-level replay ---

struct Workload {
  model::SparseDnn dnn;
  part::ModelPartition partition;
  linalg::ActivationMap input;
};

Workload MakeWorkload() {
  model::SparseDnnConfig config;
  config.neurons = 64;
  config.layers = 2;
  config.seed = 7;
  auto dnn = model::GenerateSparseDnn(config);
  EXPECT_TRUE(dnn.ok()) << dnn.status().ToString();
  auto partition = part::PartitionModel(*dnn, 1, {});
  EXPECT_TRUE(partition.ok()) << partition.status().ToString();
  model::InputConfig input_config;
  input_config.neurons = 64;
  input_config.batch = 4;
  input_config.seed = 8;
  auto input = model::GenerateInputBatch(input_config);
  EXPECT_TRUE(input.ok()) << input.status().ToString();
  return Workload{std::move(*dnn), std::move(*partition), std::move(*input)};
}

InferenceRequest MakeRequest(const Workload& w) {
  InferenceRequest request;
  request.dnn = &w.dnn;
  request.partition = &w.partition;
  request.batches = {&w.input};
  request.options.variant = Variant::kSerial;  // cheap single-worker trees
  request.options.num_workers = 1;
  return request;
}

TEST(TraceReplay, EnforcesTenantQuotasAndPartitionsFleetStats) {
  TraceConfig config;
  config.duration_s = 100.0;
  config.base_rate_qps = 10.0;
  config.seed = 21;
  TenantSpec gold;
  gold.tenant = 1;
  gold.qps_share = 1.0;
  gold.priority = 1;
  TenantSpec bronze;
  bronze.tenant = 2;
  bronze.qps_share = 1.0;
  bronze.quota_qps = 1.0;  // ~5 qps offered against a 1 qps quota
  config.tenants = {gold, bronze};
  auto trace = GenerateTrace(config);
  ASSERT_TRUE(trace.ok());
  ASSERT_GT(trace->queries.size(), 700u);

  Workload w = MakeWorkload();
  auto replay_once = [&]() {
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    ServingOptions options;
    options.tenant_quotas = TraceTenantQuotas(trace->config);
    ServingRuntime serving(&cloud, options);
    auto report = ReplayTrace(serving, *trace, MakeRequest(w));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };

  ServingReport report = replay_once();
  const FleetStats& fleet = report.fleet;
  EXPECT_EQ(fleet.queries, static_cast<int32_t>(trace->queries.size()));
  EXPECT_EQ(fleet.completed + fleet.failed + fleet.rejected + fleet.shed,
            fleet.queries);

  // Per-tenant disposition partition, against the per-query outcomes.
  std::map<int32_t, int32_t> queries, completed, rejected;
  for (const QueryOutcome& outcome : report.queries) {
    ++queries[outcome.tenant];
    if (outcome.disposition == QueryDisposition::kCompleted) {
      ++completed[outcome.tenant];
    }
    if (outcome.disposition == QueryDisposition::kRejected) {
      ++rejected[outcome.tenant];
      EXPECT_EQ(outcome.tenant, 2) << "only bronze carries a quota";
      EXPECT_NE(outcome.reject_reason.find("quota"), std::string::npos);
    }
    // Tenant metadata was stamped from the spec.
    if (outcome.tenant == 1) {
      EXPECT_EQ(outcome.priority, 1);
    }
  }
  ASSERT_EQ(fleet.tenant_stats.size(), 2u);
  for (const FleetStats::TenantStats& t : fleet.tenant_stats) {
    EXPECT_EQ(t.queries, queries[t.tenant]);
    EXPECT_EQ(t.completed, completed[t.tenant]);
    EXPECT_EQ(t.rejected, rejected[t.tenant]);
    EXPECT_EQ(t.completed + t.failed + t.rejected + t.shed, t.queries);
  }
  // Gold is unlimited: nothing rejected. Bronze offered ~5x its quota:
  // the bucket must reject the bulk of it but admit ~quota x duration.
  EXPECT_EQ(rejected[1], 0);
  EXPECT_GT(rejected[2], queries[2] / 2);
  EXPECT_GT(completed[2], 50);  // ~100s x 1 qps, minus burst edge effects

  // The replay is deterministic end to end: same trace, same kernel
  // decisions, byte-identical fleet summary.
  ServingReport again = replay_once();
  EXPECT_EQ(report.fleet.Summary(), again.fleet.Summary());
}

}  // namespace
}  // namespace fsd::core
