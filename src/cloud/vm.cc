#include "cloud/vm.h"

#include <algorithm>

namespace fsd::cloud {

Result<double> VmService::HourlyPrice(const std::string& type_name) const {
  auto it = pricing_->vm_hourly.find(type_name);
  if (it == pricing_->vm_hourly.end()) {
    return Status::NotFound("no price for VM type: " + type_name);
  }
  return it->second;
}

Result<uint64_t> VmService::Launch(const std::string& type_name) {
  if (!VmCatalogue().contains(type_name)) {
    return Status::NotFound("no such VM type: " + type_name);
  }
  FSD_ASSIGN_OR_RETURN(double hourly, HourlyPrice(type_name));
  const double boot = latency_->vm_boot.Sample(&rng_);
  sim_->Hold(boot);
  Vm vm;
  vm.hourly = hourly;
  vm.ready_at = sim_->Now();
  const uint64_t id = next_vm_id_++;
  vms_.emplace(id, vm);
  return id;
}

Status VmService::Terminate(uint64_t vm_id) {
  auto it = vms_.find(vm_id);
  if (it == vms_.end()) return Status::NotFound("no such VM");
  // Billed from launch request (boot time is charged) with 60 s minimum.
  const double seconds =
      std::max(60.0, sim_->Now() - it->second.ready_at);
  billing_->RecordCost(BillingDimension::kVmSecond, seconds,
                       seconds * it->second.hourly / 3600.0);
  vms_.erase(it);
  return Status::OK();
}

Status VmService::BillAlwaysOn(const std::string& type_name, double seconds,
                               int count) {
  FSD_ASSIGN_OR_RETURN(double hourly, HourlyPrice(type_name));
  billing_->RecordCost(BillingDimension::kVmSecond, seconds * count,
                       seconds * count * hourly / 3600.0);
  return Status::OK();
}

}  // namespace fsd::cloud
