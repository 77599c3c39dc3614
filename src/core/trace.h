// Production-style workload traces for the serving runtime.
//
// A WorkloadTrace is a deterministic list of (arrival time, tenant) pairs
// drawn from a generative model of production inference traffic:
//
//   rate(t) = base_rate_qps
//             x (1 + diurnal_amplitude * sin(2*pi*t/period + phase))
//             x flash-crowd multiplier(t)
//
// sampled by Poisson thinning (Lewis & Shedler): arrivals are drawn from a
// homogeneous Poisson process at the envelope rate max_t rate(t) and each
// is kept with probability rate(t)/max_rate, which yields an exact
// non-homogeneous Poisson process without numerical integration. Each kept
// arrival is then assigned a tenant by a weighted draw over the tenant
// mix. All randomness flows from one Rng seeded with TraceConfig::seed in
// a fixed draw order (gap, thinning accept, tenant), so a config generates
// the same trace on every host and toolchain modulo floating-point
// contraction (the math here is plain +/*, no transcendental in the
// per-arrival loop except the rate envelope itself).
//
// Traces serialize to a line-based text format (see SerializeTrace) whose
// doubles round-trip exactly (%.17g), so a saved trace replays
// byte-identically, and they replay into a ServingRuntime via ReplayTrace,
// which stamps each query with its tenant's scheduling metadata (tenant
// id, priority, SLO deadline, model family).
#ifndef FSD_CORE_TRACE_H_
#define FSD_CORE_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/scheduler.h"

namespace fsd::core {

class ServingRuntime;
struct ServingReport;
struct InferenceRequest;

/// A step surge in traffic: rate(t) is multiplied by `rate_multiplier`
/// for t in [start_s, start_s + duration_s). Overlapping crowds compound.
struct FlashCrowd {
  double start_s = 0.0;
  double duration_s = 0.0;
  double rate_multiplier = 1.0;
};

/// One tenant of the workload mix. Shares are relative weights (they need
/// not sum to 1); the scheduling fields are stamped onto every replayed
/// query of this tenant.
struct TenantSpec {
  /// Stable tenant id (> 0; 0 is the default tenant of untagged queries).
  int32_t tenant = 0;
  std::string name;
  /// Relative share of arrivals assigned to this tenant (weighted draw).
  double qps_share = 1.0;
  /// Scheduling metadata stamped onto replayed queries (FsdOptions).
  int32_t priority = 0;
  double slo_deadline_s = 0.0;
  /// Model family the tenant queries (empty keeps the base request's).
  /// Distinct families never share worker trees or partition caches.
  std::string model_family;
  /// Admission quota for this tenant; 0 = unlimited. ReplayTrace turns
  /// these into ServingOptions::tenant_quotas via TraceTenantQuotas.
  double quota_qps = 0.0;
  double quota_burst = 0.0;  ///< 0 = max(1, quota_qps)
};

struct TraceConfig {
  double duration_s = 60.0;
  double base_rate_qps = 10.0;
  /// Diurnal sinusoid: amplitude in [0, 1) of the rate swing, period of
  /// one cycle, phase offset in radians. Amplitude 0 = flat rate.
  double diurnal_amplitude = 0.0;
  double diurnal_period_s = 86400.0;
  double diurnal_phase = 0.0;
  std::vector<FlashCrowd> flash_crowds;
  /// Tenant mix; empty = every arrival belongs to the default tenant 0.
  std::vector<TenantSpec> tenants;
  uint64_t seed = 1;
  /// Hard cap on generated queries (0 = unlimited). Generation stops at
  /// whichever of duration_s / max_queries is hit first.
  uint64_t max_queries = 0;
};

/// One arrival of the trace.
struct TraceQuery {
  double arrival_s = 0.0;
  int32_t tenant = 0;
};

struct WorkloadTrace {
  TraceConfig config;
  std::vector<TraceQuery> queries;  ///< sorted by arrival_s
};

/// The instantaneous rate function rate(t) of the generative model
/// (diurnal sinusoid x flash-crowd multipliers), in queries/second.
double TraceRateAt(const TraceConfig& config, double t);

/// Generates the trace by Poisson thinning. Deterministic per config
/// (same seed => identical trace). Fails on invalid configs (negative
/// rates/durations, amplitude outside [0, 1), duplicate tenant ids,
/// non-positive shares).
Result<WorkloadTrace> GenerateTrace(const TraceConfig& config);

/// Serializes to the line-based text format:
///   fsd-trace v1
///   config <key> <value>        (one line per scalar; %.17g doubles)
///   crowd <start> <duration> <multiplier>
///   tenant <id> <share> <priority> <slo> <quota_qps> <quota_burst>
///          <name> <family>      (names URL-free tokens, '-' when empty)
///   q <arrival_s> <tenant>
/// Doubles round-trip exactly, so Parse(Serialize(t)) == t. ParseTrace
/// rejects every config GenerateTrace rejects, and negative arrivals, with
/// InvalidArgument.
std::string SerializeTrace(const WorkloadTrace& trace);
Result<WorkloadTrace> ParseTrace(std::string_view text);

Status SaveTrace(const WorkloadTrace& trace, const std::string& path);
Result<WorkloadTrace> LoadTrace(const std::string& path);

/// The ServingOptions::tenant_quotas implied by the trace's tenant specs
/// (one TenantQuota per tenant with quota_qps > 0).
std::vector<TenantQuota> TraceTenantQuotas(const TraceConfig& config);

/// Replays the trace into `runtime`: submits one clone of `base_request`
/// per trace query at its arrival time — with the tenant's scheduling
/// metadata (tenant_id, priority, slo_deadline_s, model_family) stamped
/// onto the clone's options — then drains to completion and returns the
/// report. The caller owns the runtime's options; pass
/// TraceTenantQuotas(trace.config) in ServingOptions::tenant_quotas to
/// enforce the trace's quotas during the replay.
Result<ServingReport> ReplayTrace(ServingRuntime& runtime,
                                  const WorkloadTrace& trace,
                                  const InferenceRequest& base_request);

}  // namespace fsd::core

#endif  // FSD_CORE_TRACE_H_
