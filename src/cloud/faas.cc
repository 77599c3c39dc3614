#include "cloud/faas.h"

#include <algorithm>

#include "common/strings.h"

namespace fsd::cloud {

Status FaasContext::Burn(double flops) {
  FSD_RETURN_IF_ERROR(CheckDeadline());
  sim_->Hold(service_->compute_model().FaasComputeSeconds(flops, memory_mb_));
  return CheckDeadline();
}

Status FaasContext::SleepFor(double dt) {
  FSD_RETURN_IF_ERROR(CheckDeadline());
  sim_->Hold(dt);
  return CheckDeadline();
}

Status FaasContext::OffloadFor(double dt, std::function<void()> fn) {
  FSD_RETURN_IF_ERROR(CheckDeadline());
  sim_->Offload(dt, std::move(fn));
  return CheckDeadline();
}

Status FaasContext::CheckDeadline() const {
  if (sim_->Now() >= deadline_) {
    return Status::DeadlineExceeded(
        StrFormat("function %s request %llu exceeded %.0fs runtime cap",
                  function_name_.c_str(),
                  static_cast<unsigned long long>(request_id_),
                  deadline_ - started_at_));
  }
  return Status::OK();
}

Status FaasService::RegisterFunction(FaasFunctionConfig config) {
  if (config.name.empty() || !config.handler) {
    return Status::InvalidArgument("function needs a name and a handler");
  }
  if (config.memory_mb < kFaasMinMemoryMb ||
      config.memory_mb > kFaasMaxMemoryMb) {
    return Status::InvalidArgument(
        StrFormat("memory %d MB outside provider bounds [%d, %d]",
                  config.memory_mb, kFaasMinMemoryMb, kFaasMaxMemoryMb));
  }
  if (config.timeout_s <= 0.0 || config.timeout_s > kFaasMaxTimeoutS) {
    return Status::InvalidArgument("timeout outside provider bounds");
  }
  if (functions_.contains(config.name)) {
    return Status::AlreadyExists("function exists: " + config.name);
  }
  Function fn;
  fn.config = std::move(config);
  const std::string name = fn.config.name;
  functions_.emplace(name, std::move(fn));
  return Status::OK();
}

FaasService::InvokeOutcome FaasService::InvokeAsync(const std::string& name,
                                                    Bytes payload) {
  InvokeOutcome outcome;
  auto it = functions_.find(name);
  if (it == functions_.end()) {
    outcome.status = Status::NotFound("no such function: " + name);
    return outcome;
  }
  Function& fn = it->second;
  const uint64_t request_id = next_request_id_++;
  outcome.request_id = request_id;
  outcome.completion = sim_->MakeSignal();
  billing_->Record(BillingDimension::kFaasInvocation, 1);

  // Warm-instance pools: reclaim expired instances fleet-wide (their state
  // dies with them — an instance past its keep-alive must not linger just
  // because ITS function went quiet; observers holding weak references to
  // instance state, like the share distributor's holder registry, rely on
  // expiry actually freeing it), then try to grab the most recently
  // released one of this function's pool (LIFO reuse).
  const double now = sim_->Now();
  for (auto& entry : functions_) {
    auto& expired = entry.second.warm;
    expired.erase(
        std::remove_if(
            expired.begin(), expired.end(),
            [now](const Instance& i) { return i.warm_until <= now; }),
        expired.end());
  }
  auto& pool = fn.warm;
  const bool cold = pool.empty();
  Instance instance;
  if (cold) {
    instance.id = next_instance_id_++;
  } else {
    instance = std::move(pool.back());
    pool.pop_back();
  }

  const double start_delay = cold ? latency_->faas_cold_start.Sample(&rng_)
                                  : latency_->faas_warm_start.Sample(&rng_);

  auto completion = outcome.completion;
  auto body = [this, &fn, request_id, completion, cold,
               instance = std::move(instance),
               payload = std::move(payload)]() mutable {
    FaasContext ctx;
    ctx.sim_ = sim_;
    ctx.cloud_ = cloud_;
    ctx.service_ = this;
    ctx.function_name_ = fn.config.name;
    ctx.request_id_ = request_id;
    ctx.memory_mb_ = fn.config.memory_mb;
    ctx.started_at_ = sim_->Now();
    ctx.deadline_ = sim_->Now() + fn.config.timeout_s;
    ctx.cold_start_ = cold;
    ctx.instance_id_ = instance.id;
    ctx.instance_state_ = std::move(instance.state);
    ctx.payload_ = std::move(payload);
    fn.config.handler(&ctx);
    // Billing: runtime is capped at the timeout (timed-out functions are
    // billed for the full cap, as on AWS).
    const double duration =
        std::min(sim_->Now() - ctx.started_at_, fn.config.timeout_s);
    billing_->Record(BillingDimension::kFaasRuntimeMbSec,
                     duration * fn.config.memory_mb);
    completions_[request_id] =
        CompletionRecord{ctx.result(), duration, cold};
    // The instance becomes warm and reusable, carrying whatever state the
    // handler left in it.
    instance.state = std::move(ctx.instance_state_);
    instance.warm_until = sim_->Now() + keep_alive_s_;
    fn.warm.push_back(std::move(instance));
    completion->Fire();
  };

  sim_->AddProcess(
      StrFormat("faas:%s#%llu", name.c_str(),
                static_cast<unsigned long long>(request_id)),
      std::move(body), /*start=*/start_delay);
  outcome.status = Status::OK();
  return outcome;
}

Result<FaasService::CompletionRecord> FaasService::completion(
    uint64_t request_id) const {
  auto it = completions_.find(request_id);
  if (it == completions_.end()) {
    return Status::NotFound("request not complete");
  }
  return it->second;
}

int FaasService::WarmCount(const std::string& function) const {
  auto it = functions_.find(function);
  if (it == functions_.end()) return 0;
  const double now = sim_->Now();
  int count = 0;
  for (const Instance& instance : it->second.warm) {
    if (instance.warm_until > now) ++count;
  }
  return count;
}

}  // namespace fsd::cloud
