// Metrics-layer unit tests: percentile edge cases, FleetStats on tiny
// sample counts (0/1/2 queries), batch-occupancy accounting, the
// mutually-exclusive disposition partition (rejected/shed/aborted/
// completed), SLO attainment, the model-load counter rollups, and the
// determinism of the arrival-trace generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/metrics.h"
#include "core/serving.h"

namespace fsd::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

FleetStats::QuerySample Sample(
    double arrival_s, double finish_s, double latency_s, double queue_wait_s,
    QueryDisposition disposition = QueryDisposition::kCompleted,
    int32_t priority = 0, double deadline_s = kInf) {
  FleetStats::QuerySample sample;
  sample.arrival_s = arrival_s;
  sample.finish_s = finish_s;
  sample.latency_s = latency_s;
  sample.queue_wait_s = queue_wait_s;
  sample.disposition = disposition;
  sample.priority = priority;
  sample.deadline_s = deadline_s;
  return sample;
}

TEST(Percentile, EmptySampleIsZero) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 100.0), 0.0);
}

TEST(Percentile, SingleSampleIsEveryPercentile) {
  for (double pct : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile({3.5}, pct), 3.5) << pct;
  }
}

TEST(Percentile, TwoSamplesSplitAtTheMedian) {
  const std::vector<double> two{2.0, 1.0};  // unsorted on purpose
  // Nearest-rank: ceil(p/100 * 2) picks the 1st value up to p50, the 2nd
  // beyond it.
  EXPECT_DOUBLE_EQ(Percentile(two, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(two, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(two, 50.1), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(two, 95.0), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(two, 100.0), 2.0);
}

TEST(FleetStats, EmptyWorkloadFinalizesToZeros) {
  FleetStats fleet;
  fleet.Finalize();
  EXPECT_EQ(fleet.queries, 0);
  EXPECT_DOUBLE_EQ(fleet.throughput_qps, 0.0);
  EXPECT_DOUBLE_EQ(fleet.latency_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(fleet.latency_p99_s, 0.0);
  EXPECT_DOUBLE_EQ(fleet.queue_wait_p95_s, 0.0);
  EXPECT_DOUBLE_EQ(fleet.cold_start_ratio, 0.0);
  EXPECT_DOUBLE_EQ(fleet.batch_occupancy_mean, 0.0);
  EXPECT_DOUBLE_EQ(fleet.cost_per_query, 0.0);
}

TEST(FleetStats, SingleQueryDistributionsCollapseToThatQuery) {
  FleetStats fleet;
  RunMetrics metrics;
  fleet.AddQuery(Sample(/*arrival_s=*/1.0, /*finish_s=*/3.0, /*latency_s=*/2.0,
                        /*queue_wait_s=*/0.5),
                 metrics);
  fleet.AddRun(/*member_queries=*/1, /*worker_invocations=*/4,
               /*cold_starts=*/4, /*ok=*/true);
  fleet.total_cost = 0.01;
  fleet.Finalize();
  EXPECT_EQ(fleet.queries, 1);
  EXPECT_EQ(fleet.failed, 0);
  EXPECT_DOUBLE_EQ(fleet.makespan_s, 2.0);
  for (double p : {fleet.latency_p50_s, fleet.latency_p95_s,
                   fleet.latency_p99_s, fleet.latency_max_s}) {
    EXPECT_DOUBLE_EQ(p, 2.0);
  }
  for (double p : {fleet.queue_wait_p50_s, fleet.queue_wait_p95_s,
                   fleet.queue_wait_max_s, fleet.queue_wait_mean_s}) {
    EXPECT_DOUBLE_EQ(p, 0.5);
  }
  EXPECT_DOUBLE_EQ(fleet.batch_occupancy_mean, 1.0);
  EXPECT_EQ(fleet.batch_occupancy_max, 1);
  EXPECT_DOUBLE_EQ(fleet.cold_start_ratio, 1.0);
  EXPECT_DOUBLE_EQ(fleet.cost_per_query, 0.01);
}

TEST(FleetStats, TwoQueriesSplitPercentilesAndOccupancy) {
  FleetStats fleet;
  RunMetrics metrics;
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0), metrics);
  fleet.AddQuery(Sample(0.5, 4.5, 4.0, 1.5), metrics);
  // Both queries were served by ONE shared tree (occupancy 2).
  fleet.AddRun(/*member_queries=*/2, /*worker_invocations=*/4,
               /*cold_starts=*/2, /*ok=*/true);
  fleet.Finalize();
  EXPECT_EQ(fleet.queries, 2);
  EXPECT_DOUBLE_EQ(fleet.makespan_s, 4.5);
  EXPECT_DOUBLE_EQ(fleet.latency_p50_s, 1.0);   // nearest rank: 1st of 2
  EXPECT_DOUBLE_EQ(fleet.latency_p95_s, 4.0);   // 2nd of 2
  EXPECT_DOUBLE_EQ(fleet.latency_max_s, 4.0);
  EXPECT_DOUBLE_EQ(fleet.queue_wait_p50_s, 0.0);
  EXPECT_DOUBLE_EQ(fleet.queue_wait_p95_s, 1.5);
  EXPECT_DOUBLE_EQ(fleet.queue_wait_mean_s, 0.75);
  EXPECT_EQ(fleet.runs, 1);
  EXPECT_EQ(fleet.batched_queries, 2);
  EXPECT_DOUBLE_EQ(fleet.batch_occupancy_mean, 2.0);
  EXPECT_EQ(fleet.batch_occupancy_max, 2);
  EXPECT_DOUBLE_EQ(fleet.cold_start_ratio, 0.5);
}

TEST(FleetStats, FailedQueriesAndRunsAreExcludedFromDistributions) {
  FleetStats fleet;
  RunMetrics metrics;
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0), metrics);
  fleet.AddQuery(Sample(0.0, 9.0, 9.0, 0.0, QueryDisposition::kFailed),
                 metrics);  // failed: excluded
  fleet.AddRun(1, 4, 0, true);
  fleet.AddRun(1, 4, 4, false);  // failed run: no invocations counted
  fleet.Finalize();
  EXPECT_EQ(fleet.queries, 2);
  EXPECT_EQ(fleet.completed, 1);
  EXPECT_EQ(fleet.failed, 1);
  EXPECT_DOUBLE_EQ(fleet.latency_max_s, 1.0);
  EXPECT_EQ(fleet.runs, 1);
  EXPECT_EQ(fleet.worker_invocations, 4);
  EXPECT_EQ(fleet.cold_starts, 0);
  // Makespan still spans every query (the failed one finished last).
  EXPECT_DOUBLE_EQ(fleet.makespan_s, 9.0);
}

TEST(FleetStats, DispositionsPartitionTotalSubmissionsExactly) {
  // One query per disposition, plus one extra completed one. The terminal
  // partition must be mutually exclusive and sum to total submissions —
  // a rejected or shed query can never leak into failed (or vice versa),
  // and aborted/horizon-cut queries are labeled subsets of failed.
  FleetStats fleet;
  RunMetrics metrics;
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0), metrics);
  fleet.AddQuery(Sample(0.1, 1.1, 1.0, 0.0), metrics);
  fleet.AddQuery(Sample(0.2, 2.0, 1.8, 0.0, QueryDisposition::kFailed),
                 metrics);
  fleet.AddQuery(Sample(0.3, 0.3, 0.0, 0.0, QueryDisposition::kRejected),
                 metrics);
  fleet.AddQuery(Sample(0.4, 0.9, 0.0, 0.5, QueryDisposition::kShed),
                 metrics);
  fleet.AddQuery(Sample(0.5, 1.5, 0.0, 0.0, QueryDisposition::kAborted),
                 metrics);
  fleet.AddQuery(Sample(0.6, 3.0, 0.0, 0.0, QueryDisposition::kInFlight),
                 metrics);
  fleet.AddRun(2, 4, 0, true);
  fleet.Finalize();

  EXPECT_EQ(fleet.queries, 7);
  EXPECT_EQ(fleet.completed, 2);
  EXPECT_EQ(fleet.failed, 3);  // execution failure + aborted + in flight
  EXPECT_EQ(fleet.aborted, 1);
  EXPECT_EQ(fleet.still_in_flight, 1);
  EXPECT_EQ(fleet.rejected, 1);
  EXPECT_EQ(fleet.shed, 1);
  // The partition identity: completed + failed + rejected + shed == total.
  EXPECT_EQ(fleet.completed + fleet.failed + fleet.rejected + fleet.shed,
            fleet.queries);
  EXPECT_LE(fleet.aborted + fleet.still_in_flight, fleet.failed);

  // Rejected/shed queries never launched a tree: they must not appear in
  // the latency distribution (max reflects the completed queries only) nor
  // in the occupancy denominator (2 completed queries on 1 run).
  EXPECT_DOUBLE_EQ(fleet.latency_max_s, 1.0);
  EXPECT_DOUBLE_EQ(fleet.batch_occupancy_mean, 2.0);
  // Throughput counts completed queries only.
  EXPECT_DOUBLE_EQ(fleet.throughput_qps, 2.0 / fleet.makespan_s);
}

TEST(FleetStats, SloAttainmentAndPerClassPercentiles) {
  FleetStats fleet;
  RunMetrics metrics;
  // Priority 0: two completed queries with deadlines, one hit, one miss.
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0, QueryDisposition::kCompleted,
                        /*priority=*/0, /*deadline_s=*/2.0),
                 metrics);
  fleet.AddQuery(Sample(0.0, 5.0, 5.0, 0.0, QueryDisposition::kCompleted,
                        /*priority=*/0, /*deadline_s=*/4.0),
                 metrics);
  // Priority 1: one deadline-free completed query.
  fleet.AddQuery(Sample(0.0, 2.0, 2.0, 0.0, QueryDisposition::kCompleted,
                        /*priority=*/1),
                 metrics);
  // A rejected query with a deadline never counts toward attainment.
  fleet.AddQuery(Sample(0.0, 0.0, 0.0, 0.0, QueryDisposition::kRejected,
                        /*priority=*/0, /*deadline_s=*/1.0),
                 metrics);
  fleet.Finalize();

  EXPECT_EQ(fleet.deadline_queries, 2);
  EXPECT_EQ(fleet.deadline_hits, 1);
  EXPECT_DOUBLE_EQ(fleet.slo_attainment, 0.5);
  // Goodput: completed-and-on-time queries (the deadline-free one counts
  // as on time) over the makespan.
  EXPECT_DOUBLE_EQ(fleet.goodput_qps, 2.0 / fleet.makespan_s);
  EXPECT_DOUBLE_EQ(fleet.throughput_qps, 3.0 / fleet.makespan_s);

  ASSERT_EQ(fleet.class_latency.size(), 2u);
  EXPECT_EQ(fleet.class_latency[0].priority, 0);
  EXPECT_EQ(fleet.class_latency[0].completed, 2);
  EXPECT_DOUBLE_EQ(fleet.class_latency[0].latency_p50_s, 1.0);
  EXPECT_DOUBLE_EQ(fleet.class_latency[0].latency_p95_s, 5.0);
  EXPECT_EQ(fleet.class_latency[1].priority, 1);
  EXPECT_EQ(fleet.class_latency[1].completed, 1);
  EXPECT_DOUBLE_EQ(fleet.class_latency[1].latency_p50_s, 2.0);
}

TEST(FleetStats, NoDeadlinesMeansFullAttainment) {
  FleetStats fleet;
  RunMetrics metrics;
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0), metrics);
  fleet.Finalize();
  EXPECT_EQ(fleet.deadline_queries, 0);
  EXPECT_DOUBLE_EQ(fleet.slo_attainment, 1.0);
  EXPECT_DOUBLE_EQ(fleet.goodput_qps, fleet.throughput_qps);
}

TEST(LayerMetrics, AddAccumulatesDirectAndCollectiveCounters) {
  LayerMetrics a;
  a.direct_connects = 2;
  a.punch_failures = 1;
  a.direct_msgs = 5;
  a.direct_billed_bytes = 1000;
  a.relay_fallback_msgs = 3;
  a.direct_pops = 7;
  a.direct_empty_pops = 2;
  a.collective_rounds = 4;
  a.collective_round_s = 0.25;
  LayerMetrics b;
  b.direct_connects = 1;
  b.punch_failures = 2;
  b.direct_msgs = 10;
  b.direct_billed_bytes = 500;
  b.relay_fallback_msgs = 1;
  b.direct_pops = 3;
  b.direct_empty_pops = 1;
  b.collective_rounds = 6;
  b.collective_round_s = 0.15;
  a.Add(b);
  EXPECT_EQ(a.direct_connects, 3);
  EXPECT_EQ(a.punch_failures, 3);
  EXPECT_EQ(a.direct_msgs, 15);
  EXPECT_EQ(a.direct_billed_bytes, 1500);
  EXPECT_EQ(a.relay_fallback_msgs, 4);
  EXPECT_EQ(a.direct_pops, 10);
  EXPECT_EQ(a.direct_empty_pops, 3);
  EXPECT_EQ(a.collective_rounds, 10);
  EXPECT_DOUBLE_EQ(a.collective_round_s, 0.40);
}

TEST(FleetStats, DirectLinkAndCollectiveRoundCountersAggregate) {
  FleetStats fleet;
  RunMetrics first;
  first.totals.direct_connects = 3;
  first.totals.punch_failures = 1;
  first.totals.relay_fallback_msgs = 2;
  first.totals.collective_rounds = 4;
  first.totals.collective_round_s = 0.4;
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0), first);
  RunMetrics second;
  second.totals.direct_connects = 1;
  second.totals.collective_rounds = 6;
  second.totals.collective_round_s = 0.2;
  fleet.AddQuery(Sample(0.0, 2.0, 2.0, 0.0), second);
  // Non-completed queries contribute nothing (consistent with every other
  // per-run aggregate: only served queries enter fleet totals).
  RunMetrics failed;
  failed.totals.direct_connects = 100;
  failed.totals.collective_rounds = 100;
  fleet.AddQuery(Sample(0.0, 3.0, 3.0, 0.0, QueryDisposition::kFailed),
                 failed);
  fleet.Finalize();
  EXPECT_EQ(fleet.direct_connects, 4);
  EXPECT_EQ(fleet.punch_failures, 1);
  EXPECT_EQ(fleet.relay_fallbacks, 2);
  EXPECT_EQ(fleet.collective_rounds, 10);
  // Mean per-round time pools the time over the pooled round count.
  EXPECT_DOUBLE_EQ(fleet.collective_round_mean_s, 0.6 / 10.0);
  // The counters surface in the operator-facing summary.
  const std::string summary = fleet.Summary();
  EXPECT_NE(summary.find("relay"), std::string::npos) << summary;
  EXPECT_NE(summary.find("round"), std::string::npos) << summary;
}

/// Two workers whose model-load counters all differ: worker 0 holds i + 1
/// in counter i, worker 1 holds 100 * (i + 1). Finalized.
RunMetrics TwoWorkerModelLoads() {
  RunMetrics run;
  run.workers.resize(2);
  for (size_t i = 0; i < std::size(kModelLoadCounters); ++i) {
    const int64_t v = static_cast<int64_t>(i + 1);
    run.workers[0].*kModelLoadCounters[i] = v;
    run.workers[1].*kModelLoadCounters[i] = 100 * v;
  }
  run.Finalize();
  return run;
}

TEST(ModelLoadMetrics, CounterTableListsEachCounterOnce) {
  // With the sizeof static_assert this makes the table a permutation of
  // the struct's counters.
  for (size_t i = 0; i < std::size(kModelLoadCounters); ++i) {
    for (size_t j = i + 1; j < std::size(kModelLoadCounters); ++j) {
      EXPECT_NE(kModelLoadCounters[i], kModelLoadCounters[j]) << i << " " << j;
    }
  }
}

TEST(ModelLoadMetrics, RunFinalizeSumsEveryCounterAndIsRepeatable) {
  RunMetrics run = TwoWorkerModelLoads();
  for (size_t i = 0; i < std::size(kModelLoadCounters); ++i) {
    EXPECT_EQ(run.*kModelLoadCounters[i], static_cast<int64_t>(101 * (i + 1)))
        << i;
  }
  // A second Finalize recomputes from the workers instead of re-adding.
  run.Finalize();
  for (size_t i = 0; i < std::size(kModelLoadCounters); ++i) {
    EXPECT_EQ(run.*kModelLoadCounters[i], static_cast<int64_t>(101 * (i + 1)))
        << i;
  }
}

TEST(ModelLoadMetrics, FleetAddsCompletedQueriesOnly) {
  const RunMetrics run = TwoWorkerModelLoads();
  FleetStats fleet;
  fleet.AddQuery(Sample(0.0, 1.0, 1.0, 0.0), run);
  for (QueryDisposition disposition :
       {QueryDisposition::kRejected, QueryDisposition::kShed,
        QueryDisposition::kAborted, QueryDisposition::kFailed,
        QueryDisposition::kInFlight}) {
    fleet.AddQuery(Sample(0.0, 2.0, 2.0, 0.0, disposition), run);
  }
  fleet.Finalize();
  EXPECT_EQ(fleet.completed, 1);
  for (size_t i = 0; i < std::size(kModelLoadCounters); ++i) {
    EXPECT_EQ(fleet.*kModelLoadCounters[i], run.*kModelLoadCounters[i]) << i;
  }
}

TEST(Arrivals, PoissonIsDeterministicPerSeed) {
  const auto a = PoissonArrivals(2.0, 64, 42);
  const auto b = PoissonArrivals(2.0, 64, 42);
  EXPECT_EQ(a, b);
  const auto c = PoissonArrivals(2.0, 64, 43);
  EXPECT_NE(a, c);
  ASSERT_EQ(a.size(), 64u);
  // Strictly increasing, positive gaps.
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_GT(a.front(), 0.0);
  // Mean inter-arrival roughly 1/rate (loose: 64 samples).
  EXPECT_NEAR(a.back() / 64.0, 0.5, 0.25);
}

TEST(Arrivals, BurstTraceIsExactAndDeterministic) {
  const auto a = BurstArrivals(3, 2, 10.0, /*start_s=*/1.0);
  const std::vector<double> expected{1.0, 1.0, 11.0, 11.0, 21.0, 21.0};
  EXPECT_EQ(a, expected);
  EXPECT_EQ(a, BurstArrivals(3, 2, 10.0, 1.0));
}

TEST(PercentileSketch, ExactTierMatchesPercentileByteForByte) {
  // While the sample fits under the threshold the sketch IS the exact
  // estimator: identical bits, not just identical-ish values.
  PercentileSketch sketch(/*exact_threshold=*/64);
  Rng rng(7);
  std::vector<double> values;
  for (int i = 0; i < 64; ++i) {
    const double v = rng.NextLogNormal(0.0, 1.5);
    values.push_back(v);
    sketch.Add(v);
  }
  EXPECT_FALSE(sketch.streaming());
  for (const double pct : {0.0, 10.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(sketch.Quantile(pct), Percentile(values, pct)) << pct;
  }
}

TEST(PercentileSketch, BimodalStreamingStaysWithinOnePercent) {
  // Adversarial for naive sketches: two tight modes three orders of
  // magnitude apart, 90/10 split — p50 sits in one mode, p95/p99 in the
  // other, and any bucket scheme with >1% relative error smears them.
  PercentileSketch sketch(/*exact_threshold=*/128);
  Rng rng(11);
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.NextBool(0.9) ? rng.NextUniform(0.010, 0.012)
                                       : rng.NextUniform(10.0, 12.0);
    values.push_back(v);
    sketch.Add(v);
  }
  EXPECT_TRUE(sketch.streaming());
  for (const double pct : {50.0, 95.0, 99.0}) {
    const double exact = Percentile(values, pct);
    EXPECT_NEAR(sketch.Quantile(pct), exact, exact * 0.01) << "p" << pct;
  }
  EXPECT_EQ(sketch.count(), 100000);
  // The whole point: 100k samples, bounded residency.
  EXPECT_LT(sketch.resident_samples(), 4096u);
}

TEST(PercentileSketch, HeavyTailStreamingStaysWithinOnePercent) {
  // Lognormal with sigma=2: the p99 is ~100x the median, the max far
  // beyond that — tail buckets must hold relative (not absolute) error.
  PercentileSketch sketch(/*exact_threshold=*/128);
  Rng rng(13);
  std::vector<double> values;
  double max_seen = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.NextLogNormal(-2.0, 2.0);
    values.push_back(v);
    sketch.Add(v);
    max_seen = std::max(max_seen, v);
  }
  for (const double pct : {50.0, 95.0, 99.0}) {
    const double exact = Percentile(values, pct);
    EXPECT_NEAR(sketch.Quantile(pct), exact, exact * 0.01) << "p" << pct;
  }
  // Mean and max stay exact regardless of tier.
  double sum = 0.0;
  for (const double v : values) sum += v;
  EXPECT_EQ(sketch.Max(), max_seen);
  EXPECT_NEAR(sketch.Mean(), sum / 50000.0, sum / 50000.0 * 1e-12);
}

TEST(PercentileSketch, ZerosAndNonpositivesAreExact) {
  PercentileSketch sketch(/*exact_threshold=*/4);
  for (int i = 0; i < 100; ++i) sketch.Add(0.0);
  for (int i = 0; i < 100; ++i) sketch.Add(5.0);
  EXPECT_TRUE(sketch.streaming());
  EXPECT_EQ(sketch.Quantile(25.0), 0.0);
  EXPECT_NEAR(sketch.Quantile(90.0), 5.0, 5.0 * 0.01);
}

TEST(FleetStats, SummaryIsIdenticalBelowStreamingThreshold) {
  // Two stats fed the same queries — one with a threshold far above the
  // sample count, one effectively unbounded — must summarize to the same
  // bytes: streaming must be invisible until it actually engages.
  auto feed = [](FleetStats& stats) {
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
      FleetStats::QuerySample sample;
      sample.arrival_s = i * 0.01;
      sample.latency_s = rng.NextLogNormal(0.0, 1.0);
      sample.finish_s = sample.arrival_s + sample.latency_s;
      sample.queue_wait_s = rng.NextUniform(0.0, 0.05);
      sample.disposition = QueryDisposition::kCompleted;
      stats.AddQuery(sample, {});
    }
    stats.Finalize();
  };
  FleetStats small_threshold;
  small_threshold.set_streaming_threshold(4096);
  FleetStats huge_threshold;
  huge_threshold.set_streaming_threshold(1u << 30);
  feed(small_threshold);
  feed(huge_threshold);
  EXPECT_EQ(small_threshold.Summary(), huge_threshold.Summary());
}

TEST(FleetStats, ResidentSamplesStayCappedUnderMillionsOfQueries) {
  // The regression this guards: FleetStats used to retain every latency
  // sample for Finalize's percentile sort, so a million-query replay held
  // a million doubles per distribution.
  FleetStats stats;
  stats.set_streaming_threshold(256);
  Rng rng(19);
  size_t peak_resident = 0;
  size_t resident_at_half = 0;
  for (int i = 0; i < 50000; ++i) {
    FleetStats::QuerySample sample;
    sample.arrival_s = i * 0.001;
    sample.latency_s = rng.NextLogNormal(-1.0, 1.0);
    sample.finish_s = sample.arrival_s + sample.latency_s;
    sample.queue_wait_s = rng.NextUniform(0.0, 0.01);
    sample.disposition = QueryDisposition::kCompleted;
    sample.priority = i % 3;  // three SLO classes, each its own sketch
    sample.tenant = i % 5;    // five tenants, each its own sketch
    stats.AddQuery(sample, {});
    peak_resident = std::max(peak_resident, stats.resident_samples());
    if (i == 24999) resident_at_half = stats.resident_samples();
  }
  stats.Finalize();
  // Residency is O(sketches x log value-range) — ~10 sketches here, each
  // a few hundred exact slots plus log-spaced buckets — and crucially
  // PLATEAUS: the second 25k queries may only add the stragglers of the
  // distribution tails, not grow linearly like the old retain-everything
  // code (which would hold 100k+ doubles by now).
  EXPECT_LT(peak_resident, 20000u);
  EXPECT_LT(peak_resident, resident_at_half + resident_at_half / 4 + 64);
  EXPECT_EQ(stats.queries, 50000);
}

TEST(FleetStats, TenantStatsPartitionDispositions) {
  FleetStats stats;
  auto add = [&](int32_t tenant, QueryDisposition disposition, double lat) {
    FleetStats::QuerySample sample;
    sample.latency_s = lat;
    sample.finish_s = lat;
    sample.disposition = disposition;
    sample.tenant = tenant;
    stats.AddQuery(sample, {});
  };
  add(1, QueryDisposition::kCompleted, 0.1);
  add(1, QueryDisposition::kCompleted, 0.3);
  add(1, QueryDisposition::kRejected, 0.0);
  add(2, QueryDisposition::kCompleted, 0.2);
  add(2, QueryDisposition::kShed, 0.0);
  add(2, QueryDisposition::kFailed, 0.0);
  stats.Finalize();
  ASSERT_EQ(stats.tenant_stats.size(), 2u);
  const auto& t1 = stats.tenant_stats[0];
  EXPECT_EQ(t1.tenant, 1);
  EXPECT_EQ(t1.queries, 3);
  EXPECT_EQ(t1.completed, 2);
  EXPECT_EQ(t1.rejected, 1);
  EXPECT_EQ(t1.completed + t1.failed + t1.rejected + t1.shed, t1.queries);
  const auto& t2 = stats.tenant_stats[1];
  EXPECT_EQ(t2.tenant, 2);
  EXPECT_EQ(t2.queries, 3);
  EXPECT_EQ(t2.completed, 1);
  EXPECT_EQ(t2.shed, 1);
  EXPECT_EQ(t2.failed, 1);
  EXPECT_GT(t2.latency_p50_s, 0.0);
}

}  // namespace
}  // namespace fsd::core
