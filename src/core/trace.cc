#include "core/trace.h"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "common/rng.h"
#include "common/strings.h"
#include "core/runtime.h"
#include "core/serving.h"

namespace fsd::core {

namespace {

constexpr std::string_view kTraceHeader = "fsd-trace v1";

Status ValidateConfig(const TraceConfig& config) {
  if (!(config.duration_s > 0.0)) {
    return Status::InvalidArgument("trace duration must be > 0");
  }
  if (!(config.base_rate_qps > 0.0)) {
    return Status::InvalidArgument("trace base rate must be > 0");
  }
  if (config.diurnal_amplitude < 0.0 || config.diurnal_amplitude >= 1.0) {
    return Status::InvalidArgument(
        "diurnal amplitude must be in [0, 1) (the rate may never go "
        "negative)");
  }
  if (config.diurnal_amplitude > 0.0 && !(config.diurnal_period_s > 0.0)) {
    return Status::InvalidArgument("diurnal period must be > 0");
  }
  for (const FlashCrowd& crowd : config.flash_crowds) {
    if (crowd.duration_s < 0.0 || crowd.rate_multiplier < 0.0) {
      return Status::InvalidArgument(
          "flash crowd duration and multiplier must be >= 0");
    }
  }
  std::map<int32_t, bool> seen;
  for (const TenantSpec& tenant : config.tenants) {
    if (tenant.tenant <= 0) {
      return Status::InvalidArgument(
          "tenant ids must be > 0 (0 is the default tenant)");
    }
    if (!seen.emplace(tenant.tenant, true).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate tenant id %d", tenant.tenant));
    }
    if (!(tenant.qps_share > 0.0)) {
      return Status::InvalidArgument(
          StrFormat("tenant %d qps share must be > 0", tenant.tenant));
    }
  }
  return Status::OK();
}

/// Upper bound on rate(t) over the whole trace, for the thinning
/// envelope. Compounds every crowd's above-1 multiplier (pessimistic when
/// crowds do not actually overlap — thinning stays exact, only the
/// candidate count grows).
double RateEnvelope(const TraceConfig& config) {
  double envelope = config.base_rate_qps * (1.0 + config.diurnal_amplitude);
  for (const FlashCrowd& crowd : config.flash_crowds) {
    if (crowd.rate_multiplier > 1.0) envelope *= crowd.rate_multiplier;
  }
  return envelope;
}

std::string_view TokenOrDash(const std::string& s) {
  return s.empty() ? std::string_view("-") : std::string_view(s);
}

std::string DashToEmpty(const std::string& s) { return s == "-" ? "" : s; }

}  // namespace

double TraceRateAt(const TraceConfig& config, double t) {
  double rate = config.base_rate_qps;
  if (config.diurnal_amplitude > 0.0) {
    rate *= 1.0 + config.diurnal_amplitude *
                      std::sin(2.0 * M_PI * t / config.diurnal_period_s +
                               config.diurnal_phase);
  }
  for (const FlashCrowd& crowd : config.flash_crowds) {
    if (t >= crowd.start_s && t < crowd.start_s + crowd.duration_s) {
      rate *= crowd.rate_multiplier;
    }
  }
  return rate;
}

Result<WorkloadTrace> GenerateTrace(const TraceConfig& config) {
  FSD_RETURN_IF_ERROR(ValidateConfig(config));
  WorkloadTrace trace;
  trace.config = config;

  double share_total = 0.0;
  for (const TenantSpec& tenant : config.tenants) {
    share_total += tenant.qps_share;
  }

  const double max_rate = RateEnvelope(config);
  Rng rng(config.seed);
  double t = 0.0;
  // Fixed draw order per candidate: gap, thinning accept, tenant (only on
  // accept). Adding a tenant to the mix therefore perturbs only tenant
  // assignments, never the arrival-time skeleton.
  while (true) {
    t += rng.NextExponential(1.0 / max_rate);
    if (t >= config.duration_s) break;
    if (config.max_queries > 0 && trace.queries.size() >= config.max_queries) {
      break;
    }
    const double accept = rng.NextDouble();
    if (accept * max_rate >= TraceRateAt(config, t)) continue;
    TraceQuery query;
    query.arrival_s = t;
    if (!config.tenants.empty()) {
      double draw = rng.NextDouble() * share_total;
      query.tenant = config.tenants.back().tenant;
      for (const TenantSpec& tenant : config.tenants) {
        draw -= tenant.qps_share;
        if (draw < 0.0) {
          query.tenant = tenant.tenant;
          break;
        }
      }
    }
    trace.queries.push_back(query);
  }
  return trace;
}

std::string SerializeTrace(const WorkloadTrace& trace) {
  const TraceConfig& c = trace.config;
  std::string out;
  out.reserve(64 + trace.queries.size() * 32);
  out += kTraceHeader;
  out += '\n';
  out += StrFormat("config duration_s %.17g\n", c.duration_s);
  out += StrFormat("config base_rate_qps %.17g\n", c.base_rate_qps);
  out += StrFormat("config diurnal_amplitude %.17g\n", c.diurnal_amplitude);
  out += StrFormat("config diurnal_period_s %.17g\n", c.diurnal_period_s);
  out += StrFormat("config diurnal_phase %.17g\n", c.diurnal_phase);
  out += StrFormat("config seed %llu\n",
                   static_cast<unsigned long long>(c.seed));
  out += StrFormat("config max_queries %llu\n",
                   static_cast<unsigned long long>(c.max_queries));
  for (const FlashCrowd& crowd : c.flash_crowds) {
    out += StrFormat("crowd %.17g %.17g %.17g\n", crowd.start_s,
                     crowd.duration_s, crowd.rate_multiplier);
  }
  for (const TenantSpec& tenant : c.tenants) {
    out += StrFormat("tenant %d %.17g %d %.17g %.17g %.17g %s %s\n",
                     tenant.tenant, tenant.qps_share, tenant.priority,
                     tenant.slo_deadline_s, tenant.quota_qps,
                     tenant.quota_burst,
                     std::string(TokenOrDash(tenant.name)).c_str(),
                     std::string(TokenOrDash(tenant.model_family)).c_str());
  }
  for (const TraceQuery& query : trace.queries) {
    out += StrFormat("q %.17g %d\n", query.arrival_s, query.tenant);
  }
  return out;
}

Result<WorkloadTrace> ParseTrace(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != kTraceHeader) {
    return Status::InvalidArgument("not an fsd-trace v1 file");
  }
  WorkloadTrace trace;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    bool ok = true;
    if (kind == "config") {
      std::string key;
      fields >> key;
      TraceConfig& c = trace.config;
      if (key == "duration_s") {
        ok = static_cast<bool>(fields >> c.duration_s);
      } else if (key == "base_rate_qps") {
        ok = static_cast<bool>(fields >> c.base_rate_qps);
      } else if (key == "diurnal_amplitude") {
        ok = static_cast<bool>(fields >> c.diurnal_amplitude);
      } else if (key == "diurnal_period_s") {
        ok = static_cast<bool>(fields >> c.diurnal_period_s);
      } else if (key == "diurnal_phase") {
        ok = static_cast<bool>(fields >> c.diurnal_phase);
      } else if (key == "seed") {
        ok = static_cast<bool>(fields >> c.seed);
      } else if (key == "max_queries") {
        ok = static_cast<bool>(fields >> c.max_queries);
      } else {
        return Status::InvalidArgument(
            StrFormat("line %zu: unknown config key '%s'", line_no,
                      key.c_str()));
      }
    } else if (kind == "crowd") {
      FlashCrowd crowd;
      ok = static_cast<bool>(fields >> crowd.start_s >> crowd.duration_s >>
                             crowd.rate_multiplier);
      trace.config.flash_crowds.push_back(crowd);
    } else if (kind == "tenant") {
      TenantSpec tenant;
      std::string name;
      std::string family;
      ok = static_cast<bool>(fields >> tenant.tenant >> tenant.qps_share >>
                             tenant.priority >> tenant.slo_deadline_s >>
                             tenant.quota_qps >> tenant.quota_burst >> name >>
                             family);
      tenant.name = DashToEmpty(name);
      tenant.model_family = DashToEmpty(family);
      trace.config.tenants.push_back(std::move(tenant));
    } else if (kind == "q") {
      TraceQuery query;
      ok = static_cast<bool>(fields >> query.arrival_s >> query.tenant);
      if (ok && !(query.arrival_s >= 0.0)) {
        return Status::InvalidArgument(
            StrFormat("line %zu: arrival time must be >= 0", line_no));
      }
      trace.queries.push_back(query);
    } else {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown record '%s'", line_no, kind.c_str()));
    }
    if (!ok) {
      return Status::InvalidArgument(
          StrFormat("line %zu: malformed %s record", line_no, kind.c_str()));
    }
  }
  // A parsed trace must be one GenerateTrace could have produced: its
  // tenant specs feed TraceTenantQuotas and ReplayTrace.
  FSD_RETURN_IF_ERROR(ValidateConfig(trace.config));
  return trace;
}

Status SaveTrace(const WorkloadTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::Internal(StrFormat("cannot open %s", path.c_str()));
  }
  const std::string text = SerializeTrace(trace);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  if (!out) {
    return Status::Internal(StrFormat("write to %s failed", path.c_str()));
  }
  return Status::OK();
}

Result<WorkloadTrace> LoadTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseTrace(buffer.str());
}

std::vector<TenantQuota> TraceTenantQuotas(const TraceConfig& config) {
  std::vector<TenantQuota> quotas;
  for (const TenantSpec& tenant : config.tenants) {
    if (tenant.quota_qps <= 0.0) continue;
    TenantQuota quota;
    quota.tenant = tenant.tenant;
    quota.rate_qps = tenant.quota_qps;
    quota.burst = tenant.quota_burst;
    quotas.push_back(quota);
  }
  return quotas;
}

Result<ServingReport> ReplayTrace(ServingRuntime& runtime,
                                  const WorkloadTrace& trace,
                                  const InferenceRequest& base_request) {
  std::map<int32_t, const TenantSpec*> specs;
  for (const TenantSpec& tenant : trace.config.tenants) {
    specs[tenant.tenant] = &tenant;
  }
  for (const TraceQuery& query : trace.queries) {
    InferenceRequest request = base_request;
    request.options.tenant_id = query.tenant;
    auto it = specs.find(query.tenant);
    if (it != specs.end()) {
      const TenantSpec& spec = *it->second;
      request.options.priority = spec.priority;
      request.options.slo_deadline_s = spec.slo_deadline_s;
      if (!spec.model_family.empty()) {
        request.options.model_family = spec.model_family;
      }
    }
    FSD_RETURN_IF_ERROR(runtime.Submit(request, query.arrival_s).status());
  }
  return runtime.Drain();
}

}  // namespace fsd::core
