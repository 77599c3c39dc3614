// VmService: EC2-like provisioned virtual machines.
//
// Supports the paper's server-based baselines (§VI-B): job-scoped VMs pay a
// boot delay and per-second billing for their lifetime; always-on servers
// are billed wall-clock for the provisioned window regardless of load.
#ifndef FSD_CLOUD_VM_H_
#define FSD_CLOUD_VM_H_

#include <cstdint>
#include <map>
#include <string>

#include "cloud/billing.h"
#include "cloud/latency.h"
#include "common/result.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace fsd::cloud {

struct VmType {
  std::string name;
  double vcpus = 0;
  double memory_gb = 0;
};

/// Instance catalogue used by the paper (c5 compute-optimized family).
inline const std::map<std::string, VmType>& VmCatalogue() {
  static const std::map<std::string, VmType> catalogue = {
      {"c5.2xlarge", {"c5.2xlarge", 8, 16}},
      {"c5.9xlarge", {"c5.9xlarge", 36, 72}},
      {"c5.12xlarge", {"c5.12xlarge", 48, 96}},
  };
  return catalogue;
}

class VmService {
 public:
  VmService(sim::Simulation* sim, BillingLedger* billing,
            const LatencyConfig* latency, const PricingConfig* pricing,
            Rng rng)
      : sim_(sim),
        billing_(billing),
        latency_(latency),
        pricing_(pricing),
        rng_(rng) {}

  /// Launches a job-scoped VM; blocks (Holds) through the boot delay.
  /// Returns the VM id once the instance is ready to run work.
  Result<uint64_t> Launch(const std::string& type_name);

  /// Terminates and bills the instance (per-second, 60 s minimum).
  Status Terminate(uint64_t vm_id);

  /// Bills an always-on fleet: `count` instances of `type` for `seconds`
  /// of wall-clock, independent of utilization.
  Status BillAlwaysOn(const std::string& type_name, double seconds,
                      int count);

 private:
  struct Vm {
    double hourly = 0.0;
    double ready_at = 0.0;
  };

  Result<double> HourlyPrice(const std::string& type_name) const;

  sim::Simulation* sim_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  const PricingConfig* pricing_;
  Rng rng_;
  uint64_t next_vm_id_ = 1;
  std::map<uint64_t, Vm> vms_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_VM_H_
