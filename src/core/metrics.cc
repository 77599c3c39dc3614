#include "core/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace fsd::core {

std::string_view QueryDispositionName(QueryDisposition disposition) {
  switch (disposition) {
    case QueryDisposition::kInFlight:
      return "in-flight";
    case QueryDisposition::kCompleted:
      return "completed";
    case QueryDisposition::kFailed:
      return "failed";
    case QueryDisposition::kRejected:
      return "rejected";
    case QueryDisposition::kShed:
      return "shed";
    case QueryDisposition::kAborted:
      return "aborted";
  }
  return "unknown";
}

void LayerMetrics::Add(const LayerMetrics& other) {
  send_targets += other.send_targets;
  send_rows_mapped += other.send_rows_mapped;
  send_rows_active += other.send_rows_active;
  send_chunks += other.send_chunks;
  send_raw_bytes += other.send_raw_bytes;
  send_wire_bytes += other.send_wire_bytes;
  send_billed_bytes += other.send_billed_bytes;
  publishes += other.publishes;
  publish_chunks += other.publish_chunks;
  puts_dat += other.puts_dat;
  puts_nul += other.puts_nul;
  kv_pushes += other.kv_pushes;
  direct_connects += other.direct_connects;
  punch_failures += other.punch_failures;
  direct_msgs += other.direct_msgs;
  direct_billed_bytes += other.direct_billed_bytes;
  relay_fallback_msgs += other.relay_fallback_msgs;
  quant_chunks += other.quant_chunks;
  quant_values += other.quant_values;
  if (other.quant_err_max > quant_err_max) quant_err_max = other.quant_err_max;
  serialize_s += other.serialize_s;
  polls += other.polls;
  empty_polls += other.empty_polls;
  deletes += other.deletes;
  msgs_received += other.msgs_received;
  lists += other.lists;
  gets += other.gets;
  kv_pops += other.kv_pops;
  kv_empty_pops += other.kv_empty_pops;
  direct_pops += other.direct_pops;
  direct_empty_pops += other.direct_empty_pops;
  nul_skipped += other.nul_skipped;
  redundant_skipped += other.redundant_skipped;
  recv_wire_bytes += other.recv_wire_bytes;
  recv_billed_bytes += other.recv_billed_bytes;
  recv_rows += other.recv_rows;
  recv_wait_s += other.recv_wait_s;
  deserialize_s += other.deserialize_s;
  compute_macs += other.compute_macs;
  compute_s += other.compute_s;
  offload_calls += other.offload_calls;
  offload_virtual_s += other.offload_virtual_s;
  out_rows += other.out_rows;
  out_nnz += other.out_nnz;
  layer_wall_s += other.layer_wall_s;
  collective_rounds += other.collective_rounds;
  collective_round_s += other.collective_round_s;
}

void ModelLoadMetrics::Add(const ModelLoadMetrics& other) {
  for (int64_t ModelLoadMetrics::*counter : kModelLoadCounters) {
    this->*counter += other.*counter;
  }
}

void WorkerMetrics::Finalize() {
  totals = LayerMetrics{};
  for (const LayerMetrics& layer : layers) totals.Add(layer);
}

void RunMetrics::Finalize() {
  totals = LayerMetrics{};
  mean_worker_s = 0.0;
  max_worker_s = 0.0;
  cold_starts = 0;
  static_cast<ModelLoadMetrics&>(*this) = ModelLoadMetrics{};
  for (WorkerMetrics& w : workers) {
    w.Finalize();
    totals.Add(w.totals);
    const double d = w.duration_s();
    mean_worker_s += d;
    if (d > max_worker_s) max_worker_s = d;
    if (w.cold_start) ++cold_starts;
    Add(w);
  }
  if (!workers.empty()) mean_worker_s /= static_cast<double>(workers.size());
}

std::string RunMetrics::Summary() const {
  return StrFormat(
      "workers=%zu Tbar=%.3fs Tmax=%.3fs sent=%lld chunks (%s wire, %s raw) "
      "publishes=%lld puts=%lld/%lld polls=%lld (%lld empty) lists=%lld "
      "gets=%lld kv=%lld/%lld direct=%lld msgs (%lld links, %lld relayed) "
      "rounds=%lld (%.1fms/round) recv_rows=%lld cache=%lld/%lld hit/miss "
      "(%s saved) shares=%lld/%lld/%lld storage/peer/prewarmed",
      workers.size(), mean_worker_s, max_worker_s,
      static_cast<long long>(totals.send_chunks),
      HumanBytes(static_cast<double>(totals.send_wire_bytes)).c_str(),
      HumanBytes(static_cast<double>(totals.send_raw_bytes)).c_str(),
      static_cast<long long>(totals.publishes),
      static_cast<long long>(totals.puts_dat),
      static_cast<long long>(totals.puts_nul),
      static_cast<long long>(totals.polls),
      static_cast<long long>(totals.empty_polls),
      static_cast<long long>(totals.lists),
      static_cast<long long>(totals.gets),
      static_cast<long long>(totals.kv_pushes),
      static_cast<long long>(totals.kv_pops),
      static_cast<long long>(totals.direct_msgs),
      static_cast<long long>(totals.direct_connects),
      static_cast<long long>(totals.relay_fallback_msgs),
      static_cast<long long>(totals.collective_rounds),
      totals.collective_rounds > 0
          ? 1000.0 * totals.collective_round_s /
                static_cast<double>(totals.collective_rounds)
          : 0.0,
      static_cast<long long>(totals.recv_rows),
      static_cast<long long>(cache_hits),
      static_cast<long long>(cache_misses),
      HumanBytes(static_cast<double>(model_bytes_saved)).c_str(),
      static_cast<long long>(share_loads_storage),
      static_cast<long long>(share_loads_peer),
      static_cast<long long>(prewarmed_hits));
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (pct <= 0.0) return values.front();
  if (pct >= 100.0) return values.back();
  // Nearest-rank: ceil(p/100 * n), 1-indexed.
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

void PercentileSketch::Add(double v) {
  ++count_;
  sum_ += v;
  if (count_ == 1 || v > max_) max_ = v;
  if (v > 0.0 && (min_positive_ == 0.0 || v < min_positive_)) {
    min_positive_ = v;
  }
  if (!streaming_) {
    exact_.push_back(v);
    if (exact_.size() > exact_threshold_) FoldIntoBuckets();
    return;
  }
  AddToBuckets(v);
}

int32_t PercentileSketch::BucketIndex(double v) const {
  return static_cast<int32_t>(std::floor(std::log(v) / std::log(kGrowth)));
}

void PercentileSketch::AddToBuckets(double v) {
  if (v <= 0.0) {
    ++nonpositive_;
    return;
  }
  ++buckets_[BucketIndex(v)];
}

void PercentileSketch::FoldIntoBuckets() {
  for (double v : exact_) AddToBuckets(v);
  exact_.clear();
  exact_.shrink_to_fit();
  streaming_ = true;
}

double PercentileSketch::Quantile(double pct) const {
  if (count_ == 0) return 0.0;
  // Exact tier: THE historical sort-based nearest-rank value, bit for bit.
  if (!streaming_) return Percentile(exact_, pct);
  if (pct >= 100.0) return Max();
  int64_t rank =
      pct <= 0.0
          ? 1
          : static_cast<int64_t>(
                std::ceil(pct / 100.0 * static_cast<double>(count_)));
  rank = std::max<int64_t>(1, std::min(rank, count_));
  if (rank <= nonpositive_) return 0.0;
  int64_t seen = nonpositive_;
  for (const auto& [index, n] : buckets_) {
    seen += n;
    if (seen >= rank) {
      // Geometric bucket midpoint, clamped into the observed value range
      // (the extreme buckets only partially cover their span).
      const double v =
          std::exp((static_cast<double>(index) + 0.5) * std::log(kGrowth));
      return std::min(std::max(v, min_positive_), max_);
    }
  }
  return Max();
}

double PercentileSketch::Mean() const {
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double PercentileSketch::Max() const { return count_ > 0 ? max_ : 0.0; }

void FleetStats::AddQuery(const QuerySample& sample,
                          const RunMetrics& metrics) {
  if (queries == 0 || sample.arrival_s < first_arrival_s_) {
    first_arrival_s_ = sample.arrival_s;
  }
  if (queries == 0 || sample.finish_s > last_finish_s_) {
    last_finish_s_ = sample.finish_s;
  }
  ++queries;
  TenantAcc& tenant =
      tenant_acc_.try_emplace(sample.tenant, streaming_threshold_)
          .first->second;
  ++tenant.queries;
  switch (sample.disposition) {
    case QueryDisposition::kRejected:
      ++rejected;
      ++tenant.rejected;
      return;
    case QueryDisposition::kShed:
      ++shed;
      ++tenant.shed;
      return;
    case QueryDisposition::kAborted:
      ++failed;
      ++aborted;
      ++tenant.failed;
      return;
    case QueryDisposition::kInFlight:
      ++failed;
      ++still_in_flight;
      ++tenant.failed;
      return;
    case QueryDisposition::kFailed:
      ++failed;
      ++tenant.failed;
      return;
    case QueryDisposition::kCompleted:
      break;
  }
  ++completed;
  ++tenant.completed;
  if (std::isfinite(sample.deadline_s)) {
    ++deadline_queries;
    if (sample.finish_s <= sample.deadline_s) {
      ++deadline_hits;
    } else {
      ++deadline_misses_;
    }
  }
  latencies_.Add(sample.latency_s);
  queue_waits_.Add(sample.queue_wait_s);
  tenant.latencies.Add(sample.latency_s);
  class_latencies_.try_emplace(sample.priority, streaming_threshold_)
      .first->second.Add(sample.latency_s);
  Add(metrics);
  direct_connects += metrics.totals.direct_connects;
  punch_failures += metrics.totals.punch_failures;
  relay_fallbacks += metrics.totals.relay_fallback_msgs;
  collective_rounds += metrics.totals.collective_rounds;
  collective_round_s_total_ += metrics.totals.collective_round_s;
  offload_calls += metrics.totals.offload_calls;
  offload_virtual_s += metrics.totals.offload_virtual_s;
}

void FleetStats::AddRun(int32_t member_queries, int64_t invocations,
                        int64_t cold, bool ok) {
  if (!ok) return;
  ++runs;
  if (member_queries > 1) batched_queries += member_queries;
  if (member_queries > batch_occupancy_max) {
    batch_occupancy_max = member_queries;
  }
  worker_invocations += invocations;
  cold_starts += cold;
}

void FleetStats::Finalize() {
  makespan_s = last_finish_s_ - first_arrival_s_;
  throughput_qps =
      makespan_s > 0.0 ? static_cast<double>(completed) / makespan_s : 0.0;
  goodput_qps = makespan_s > 0.0
                    ? static_cast<double>(completed - deadline_misses_) /
                          makespan_s
                    : 0.0;
  slo_attainment =
      deadline_queries > 0
          ? static_cast<double>(deadline_hits) /
                static_cast<double>(deadline_queries)
          : 1.0;
  class_latency.clear();
  for (const auto& [priority, sketch] : class_latencies_) {
    ClassLatency cls;
    cls.priority = priority;
    cls.completed = static_cast<int32_t>(sketch.count());
    cls.latency_p50_s = sketch.Quantile(50.0);
    cls.latency_p95_s = sketch.Quantile(95.0);
    class_latency.push_back(cls);
  }
  tenant_stats.clear();
  for (const auto& [id, acc] : tenant_acc_) {
    TenantStats t;
    t.tenant = id;
    t.queries = acc.queries;
    t.completed = acc.completed;
    t.failed = acc.failed;
    t.rejected = acc.rejected;
    t.shed = acc.shed;
    t.latency_p50_s = acc.latencies.Quantile(50.0);
    t.latency_p95_s = acc.latencies.Quantile(95.0);
    tenant_stats.push_back(t);
  }
  latency_mean_s = latencies_.Mean();
  latency_p50_s = latencies_.Quantile(50.0);
  latency_p95_s = latencies_.Quantile(95.0);
  latency_p99_s = latencies_.Quantile(99.0);
  latency_max_s = latencies_.Max();
  queue_wait_mean_s = queue_waits_.Mean();
  queue_wait_p50_s = queue_waits_.Quantile(50.0);
  queue_wait_p95_s = queue_waits_.Quantile(95.0);
  queue_wait_max_s = queue_waits_.Max();
  // Occupancy/cost denominators use the completed count only: rejected and
  // shed queries never launched (or finished) a tree, so counting them
  // would misstate how full the launched trees ran.
  batch_occupancy_mean =
      runs > 0 ? static_cast<double>(completed) / static_cast<double>(runs)
               : 0.0;
  cold_start_ratio =
      worker_invocations > 0
          ? static_cast<double>(cold_starts) /
                static_cast<double>(worker_invocations)
          : 0.0;
  collective_round_mean_s =
      collective_rounds > 0
          ? collective_round_s_total_ / static_cast<double>(collective_rounds)
          : 0.0;
  const int64_t lookups = cache_hits + cache_misses;
  cache_hit_ratio =
      lookups > 0 ? static_cast<double>(cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  cost_per_query =
      completed > 0 ? total_cost / static_cast<double>(completed) : 0.0;
  daily_cost =
      makespan_s > 0.0 ? total_cost * (86400.0 / makespan_s) : total_cost;
}

void FleetStats::set_streaming_threshold(size_t threshold) {
  streaming_threshold_ = threshold;
  latencies_ = PercentileSketch(threshold);
  queue_waits_ = PercentileSketch(threshold);
  class_latencies_.clear();
  tenant_acc_.clear();
}

size_t FleetStats::resident_samples() const {
  size_t resident = latencies_.resident_samples() +
                    queue_waits_.resident_samples();
  for (const auto& [priority, sketch] : class_latencies_) {
    resident += sketch.resident_samples();
  }
  for (const auto& [id, acc] : tenant_acc_) {
    resident += acc.latencies.resident_samples();
  }
  return resident;
}

std::string FleetStats::Summary() const {
  std::string slo;
  if (deadline_queries > 0) {
    slo = StrFormat(" slo=%.1f%% (%d/%d deadlines, goodput %.3f qps)",
                    100.0 * slo_attainment, deadline_hits, deadline_queries,
                    goodput_qps);
  }
  // Tenant breakdown only when the workload actually is multi-tenant:
  // single-default-tenant summaries stay byte-identical to the historical
  // format.
  std::string tenants;
  const bool multi_tenant =
      tenant_stats.size() > 1 ||
      (tenant_stats.size() == 1 && tenant_stats.front().tenant != 0);
  // Offload segment only when the workload used the compute-offload
  // primitive, so legacy summaries stay byte-identical. The counters are
  // virtual-time facts — identical for every compute_threads value — so
  // this string remains a valid cross-pool byte-identity witness.
  std::string offload;
  if (offload_calls > 0) {
    offload = StrFormat(" offload=%lld closures (%.3fs virtual)",
                        static_cast<long long>(offload_calls),
                        offload_virtual_s);
  }
  if (multi_tenant) {
    tenants = " tenants=[";
    for (size_t i = 0; i < tenant_stats.size(); ++i) {
      const TenantStats& t = tenant_stats[i];
      tenants += StrFormat(
          "%s%d:q%d c%d r%d s%d p50=%.3fs", i == 0 ? "" : " ", t.tenant,
          t.queries, t.completed, t.rejected, t.shed, t.latency_p50_s);
    }
    tenants += "]";
  }
  return StrFormat(
      "queries=%d (%d failed, %d rejected, %d shed) runs=%d "
      "occupancy=%.2f (max %d) makespan=%.2fs throughput=%.3f qps%s "
      "latency p50/p95/p99/max=%.3f/%.3f/%.3f/%.3fs "
      "queue-wait p50/p95=%.3f/%.3fs cold=%.1f%% "
      "cache=%.1f%% hit (%lld evicted, %s saved) "
      "shares=%lld/%lld/%lld storage/peer/prewarmed (%d prewarm calls) "
      "links=%lld (%lld punch-failed, %lld relayed) "
      "rounds=%lld (%.1fms/round)%s "
      "cost=%s (%s/query, %s/day)%s",
      queries, failed, rejected, shed, runs, batch_occupancy_mean,
      batch_occupancy_max, makespan_s, throughput_qps, slo.c_str(),
      latency_p50_s, latency_p95_s, latency_p99_s, latency_max_s,
      queue_wait_p50_s, queue_wait_p95_s, 100.0 * cold_start_ratio,
      100.0 * cache_hit_ratio, static_cast<long long>(cache_evictions),
      HumanBytes(static_cast<double>(model_bytes_saved)).c_str(),
      static_cast<long long>(share_loads_storage),
      static_cast<long long>(share_loads_peer),
      static_cast<long long>(prewarmed_hits), prewarm_invocations,
      static_cast<long long>(direct_connects),
      static_cast<long long>(punch_failures),
      static_cast<long long>(relay_fallbacks),
      static_cast<long long>(collective_rounds),
      1000.0 * collective_round_mean_s, offload.c_str(),
      HumanDollars(total_cost).c_str(), HumanDollars(cost_per_query).c_str(),
      HumanDollars(daily_cost).c_str(), tenants.c_str());
}

}  // namespace fsd::core
