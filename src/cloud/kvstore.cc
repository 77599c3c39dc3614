#include "cloud/kvstore.h"

#include <functional>

namespace fsd::cloud {

Status KvStore::CreateNamespace(const std::string& name,
                                KvNamespaceOptions options) {
  if (namespaces_.contains(name)) {
    return Status::AlreadyExists("kv namespace exists: " + name);
  }
  FSD_CHECK_GE(options.num_shards, 1);
  Namespace ns;
  ns.lists =
      std::make_shared<InboxLists>(sim_, "kv namespace deleted: " + name);
  for (int s = 0; s < options.num_shards; ++s) {
    ns.shard_limiters.push_back(
        std::make_unique<RateLimiter>(latency_->kv_ops_rps_per_shard));
  }
  namespaces_.emplace(name, std::move(ns));
  return Status::OK();
}

bool KvStore::NamespaceExists(const std::string& name) const {
  return namespaces_.contains(name);
}

Status KvStore::DeleteNamespace(const std::string& name) {
  auto it = namespaces_.find(name);
  if (it == namespaces_.end()) {
    return Status::NotFound("no such kv namespace: " + name);
  }
  // The namespace's node time is what a request-priced service never
  // charges: bill the active window (first use -> teardown) on the way
  // out so ledger deltas capture the standing cost of keeping a cache
  // around for the run. Pre-provisioned-but-idle time is free.
  const double seconds =
      it->second.first_use_at >= 0.0 ? sim_->Now() - it->second.first_use_at
                                     : 0.0;
  billing_->RecordCost(BillingDimension::kKvNodeSecond, seconds,
                       seconds * billing_->pricing().kv_node_hourly / 3600.0);
  // Wake any blocked poppers; they observe NotFound.
  it->second.lists->Close();
  namespaces_.erase(it);
  return Status::OK();
}

KvStore::Namespace* KvStore::Find(const std::string& name) {
  auto it = namespaces_.find(name);
  return it == namespaces_.end() ? nullptr : &it->second;
}

double KvStore::ShardDelay(Namespace* ns, const std::string& key) {
  const size_t shard =
      std::hash<std::string>{}(key) % ns->shard_limiters.size();
  return ns->shard_limiters[shard]->AdmissionDelay(sim_->Now());
}

void KvStore::BillRequest(Namespace* ns, uint64_t bytes) {
  if (ns->first_use_at < 0.0) ns->first_use_at = sim_->Now();
  billing_->Record(BillingDimension::kKvRequest, 1);
  if (bytes > 0) {
    billing_->Record(BillingDimension::kKvProcessedByte,
                     static_cast<double>(bytes));
  }
}

KvStore::PushOutcome KvStore::Push(const std::string& ns_name,
                                   const std::string& key,
                                   SharedBytes value) {
  FSD_CHECK(value != nullptr);
  PushOutcome outcome;
  Namespace* ns = Find(ns_name);
  if (ns == nullptr) {
    outcome.status = Status::NotFound("no such kv namespace: " + ns_name);
    return outcome;
  }
  BillRequest(ns, value->size());
  const double queueing = ShardDelay(ns, key);
  outcome.latency =
      queueing + latency_->kv_push.Sample(&rng_, value->size());
  ns->lists->Push(key, std::move(value), outcome.latency);
  outcome.status = Status::OK();
  return outcome;
}

Result<std::vector<SharedBytes>> KvStore::BlockingPopAll(
    const std::string& ns_name, const std::string& key, int max_values,
    double wait_s) {
  FSD_RETURN_IF_ERROR(CheckPopCount(max_values));
  Namespace* ns = Find(ns_name);
  if (ns == nullptr) {
    return Status::NotFound("no such kv namespace: " + ns_name);
  }
  // Holding yields to the scheduler, and the namespace may be torn down
  // meanwhile: the pop then sees the closed inbox and returns NotFound.
  // While the inbox is open, the namespace (and `ns`) is still alive.
  const std::shared_ptr<InboxLists> lists = ns->lists;
  const double queueing = ShardDelay(ns, key);
  if (queueing > 0.0) sim_->Hold(queueing);
  Result<std::vector<SharedBytes>> got = lists->Pop(key, max_values, wait_s);
  if (!got.ok()) return got;

  uint64_t bytes = 0;
  for (const SharedBytes& v : *got) bytes += v->size();
  BillRequest(ns, bytes);
  sim_->Hold(latency_->kv_pop.Sample(&rng_, bytes));
  return got;
}

}  // namespace fsd::cloud
