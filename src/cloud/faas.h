// FaasService: scaled-by-request Function-as-a-Service (AWS Lambda model).
//
// Captures the FaaS properties the paper builds on (§II-A, §VI-A1):
//  - asynchronous invocation; each request runs in its own instance
//  - cold vs warm starts (idle instances are reused within a keep-alive)
//  - memory is configurable; vCPU share is proportional to memory
//  - a hard per-invocation runtime cap (15 minutes) — workers must check
//    the deadline and abort, exactly like real Lambda functions time out
//  - billing: per invocation + per MB-second of runtime (Eq. 4)
//  - instance-local state: an execution environment that is reused warm
//    keeps whatever state the previous invocation left in it (the
//    λScale-style warm-state lever the partition cache builds on)
#ifndef FSD_CLOUD_FAAS_H_
#define FSD_CLOUD_FAAS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/latency.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace fsd::cloud {

class CloudEnv;
class FaasService;

/// Compute-rate model: Lambda allocates vCPU proportional to memory
/// (1 vCPU per 1769 MB, capped at 6), and each vCPU sustains a calibrated
/// sparse-compute rate. Calibrated so FSD-Inf-Serial on a 10240 MB function
/// processes the N=1024 benchmark at ~2 ms/sample, matching Table II.
struct ComputeModelConfig {
  double gflops_per_vcpu = 0.68;
  double mb_per_vcpu = 1769.0;
  double max_faas_vcpus = 6.0;
  /// Payload (de)serialization + compression throughput per IPC lane,
  /// calibrated to the paper's Python + zlib stack.
  double serialize_bytes_per_s = 80.0e6;
  double deserialize_bytes_per_s = 120.0e6;
  /// Extra send-side pass the quantized wire mode spends per raw payload
  /// byte (scale scan + round + bit-pack); the cost model's break-even
  /// term prices this CPU against the billed bytes it saves.
  double quant_bytes_per_s = 160.0e6;

  double FaasVcpus(int memory_mb) const {
    const double v = static_cast<double>(memory_mb) / mb_per_vcpu;
    return v > max_faas_vcpus ? max_faas_vcpus : v;
  }
  /// Seconds of virtual time to execute `flops` floating-point operations.
  double FaasComputeSeconds(double flops, int memory_mb) const {
    return flops / (1e9 * gflops_per_vcpu * FaasVcpus(memory_mb));
  }
  double VmComputeSeconds(double flops, double vcpus) const {
    return flops / (1e9 * gflops_per_vcpu * vcpus);
  }
};

/// Execution context handed to a function handler. All virtual-time
/// consumption inside a handler goes through the context so the runtime
/// cap and MB-second billing stay accurate.
class FaasContext {
 public:
  sim::Simulation* sim() const { return sim_; }
  CloudEnv* cloud() const { return cloud_; }
  const Bytes& payload() const { return payload_; }
  int memory_mb() const { return memory_mb_; }
  uint64_t request_id() const { return request_id_; }
  const std::string& function_name() const { return function_name_; }
  double started_at() const { return started_at_; }
  double deadline() const { return deadline_; }
  /// Whether this invocation paid a cold start (no warm instance available).
  bool cold_start() const { return cold_start_; }
  /// Identity of the execution environment running this invocation. Stable
  /// across warm reuse: two invocations that report the same instance id
  /// ran in the same environment (and therefore share instance state).
  uint64_t instance_id() const { return instance_id_; }

  /// Instance-local state surviving warm reuse. A cold instance starts with
  /// nullptr; whatever a handler leaves here is visible to the next
  /// invocation that reuses this instance warm — exactly the in-memory
  /// residue (loaded libraries, caches, model weights) real FaaS handlers
  /// exploit. Reclaimed with the instance when the keep-alive expires.
  const std::shared_ptr<void>& instance_state() const {
    return instance_state_;
  }
  void set_instance_state(std::shared_ptr<void> state) {
    instance_state_ = std::move(state);
  }

  /// Charges `flops` of compute to virtual time; fails with
  /// DeadlineExceeded once the runtime cap is hit.
  Status Burn(double flops);

  /// Advances virtual time (e.g. framework overheads); deadline-checked.
  Status SleepFor(double dt);

  /// Deadline-checked Simulation::Offload: runs `fn` while `dt` seconds of
  /// virtual time pass (overlapping it on a real pool thread when the sim
  /// has compute_threads > 0). Same determinism contract as Offload: `fn`
  /// may only touch this handler's own state and immutable shared data.
  Status OffloadFor(double dt, std::function<void()> fn);

  /// Returns DeadlineExceeded if the cap has been reached.
  Status CheckDeadline() const;

  /// Handlers report their terminal status here (NOT by throwing).
  void set_result(Status status) { result_ = std::move(status); }
  const Status& result() const { return result_; }

 private:
  friend class FaasService;
  sim::Simulation* sim_ = nullptr;
  CloudEnv* cloud_ = nullptr;
  FaasService* service_ = nullptr;
  std::string function_name_;
  uint64_t request_id_ = 0;
  int memory_mb_ = 128;
  double started_at_ = 0.0;
  double deadline_ = 0.0;
  bool cold_start_ = false;
  uint64_t instance_id_ = 0;
  std::shared_ptr<void> instance_state_;
  Bytes payload_;
  Status result_;
};

using FaasHandler = std::function<void(FaasContext*)>;

struct FaasFunctionConfig {
  std::string name;
  int memory_mb = 128;        ///< 128..10240 (AWS Lambda bounds)
  double timeout_s = 900.0;   ///< runtime cap; AWS max is 15 minutes
  FaasHandler handler;
};

/// Hard provider bounds (AWS Lambda at the time of the paper).
constexpr int kFaasMinMemoryMb = 128;
constexpr int kFaasMaxMemoryMb = 10240;
constexpr double kFaasMaxTimeoutS = 900.0;

class FaasService {
 public:
  FaasService(sim::Simulation* sim, CloudEnv* cloud, BillingLedger* billing,
              const LatencyConfig* latency, const ComputeModelConfig* compute,
              Rng rng)
      : sim_(sim),
        cloud_(cloud),
        billing_(billing),
        latency_(latency),
        compute_(compute),
        rng_(rng) {}

  Status RegisterFunction(FaasFunctionConfig config);

  struct InvokeOutcome {
    Status status;
    uint64_t request_id = 0;
    /// Fires when the handler finishes (joinable via Simulation::WaitSignal).
    std::shared_ptr<sim::SimSignal> completion;
  };

  /// Asynchronous invocation ("Event" invocation type): returns immediately;
  /// the handler starts after the cold/warm start delay.
  InvokeOutcome InvokeAsync(const std::string& function, Bytes payload);

  /// Last observed runtime and status per request (for joins/metrics).
  struct CompletionRecord {
    Status status;
    double duration_s = 0.0;
    bool cold_start = false;
  };
  Result<CompletionRecord> completion(uint64_t request_id) const;

  /// Number of warm (idle, reusable) instances for a function.
  int WarmCount(const std::string& function) const;

  /// How long an idle instance stays warm before reclaim.
  void set_keep_alive_s(double s) { keep_alive_s_ = s; }

  const ComputeModelConfig& compute_model() const { return *compute_; }

 private:
  /// An idle execution environment: identity + the state its last
  /// invocation left behind, reusable until the keep-alive expires.
  struct Instance {
    uint64_t id = 0;
    double warm_until = 0.0;
    std::shared_ptr<void> state;
  };
  struct Function {
    FaasFunctionConfig config;
    /// Idle warm instances, in release order (most recent last; warm
    /// invocations take the most recently released instance, as Lambda's
    /// LIFO reuse does).
    std::vector<Instance> warm;
  };

  sim::Simulation* sim_;
  CloudEnv* cloud_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  const ComputeModelConfig* compute_;
  Rng rng_;
  double keep_alive_s_ = 600.0;
  uint64_t next_request_id_ = 1;
  uint64_t next_instance_id_ = 1;
  std::map<std::string, Function> functions_;
  std::map<uint64_t, CompletionRecord> completions_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_FAAS_H_
