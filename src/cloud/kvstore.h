// KvStore: ElastiCache/Redis-style in-memory key-value service for the
// simulated cloud.
//
// Models the properties a low-latency serverless communication channel
// depends on (FMI-style message passing over a managed cache):
//  - namespaces ("caches"/logical databases): created per run, deleted at
//    teardown; node time is billed for the namespace's lifetime, the
//    standing cost that distinguishes a cache from request-priced storage
//  - list keys with RPUSH-style appends and BLPOP-style blocking pops;
//    pops are destructive, so there is no delete API call and no
//    visibility-timeout redelivery (unlike SQS)
//  - sub-millisecond operation latency (in-VPC Redis), orders of magnitude
//    below queue/object-storage APIs
//  - per-shard request-rate caps: sharding a namespace raises the
//    aggregate op limit, mirroring cluster-mode slot spreading
//  - every operation is billed per request plus per processed byte
//    (ECPU-style metering)
#ifndef FSD_CLOUD_KVSTORE_H_
#define FSD_CLOUD_KVSTORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/billing.h"
#include "cloud/inbox.h"
#include "cloud/latency.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace fsd::cloud {

struct KvNamespaceOptions {
  /// Cluster shards the namespace's keys are spread over; each shard has
  /// its own request-rate cap.
  int num_shards = 4;
};

class KvStore {
 public:
  KvStore(sim::Simulation* sim, BillingLedger* billing,
          const LatencyConfig* latency, Rng rng)
      : sim_(sim), billing_(billing), latency_(latency), rng_(rng) {}

  /// Creates a namespace. Control-plane operation: not billed per request
  /// and not timed. Node-time billing starts at the namespace's FIRST
  /// data-plane use, not at creation — serving runtimes provision ahead of
  /// a query's arrival, and idle pre-provisioned namespaces are free, as
  /// with a serverless cache's activity-based minimum.
  Status CreateNamespace(const std::string& name,
                         KvNamespaceOptions options = {});
  bool NamespaceExists(const std::string& name) const;

  /// Deletes the namespace and bills kKvNodeSecond for its active window
  /// (first use -> now; zero if never used). Control-plane operation;
  /// pending blocking pops see NotFound on their next wake.
  Status DeleteNamespace(const std::string& name);

  struct PushOutcome {
    Status status;
    /// Round-trip latency (including rate-limit queueing); the value
    /// becomes poppable at call time + latency.
    double latency = 0.0;
  };

  /// RPUSH-style append of `value` (non-null) to list `key`. Non-blocking:
  /// bills one request plus processed bytes and schedules visibility, so
  /// callers can dispatch pushes on parallel lanes. The list holds the
  /// buffer by reference; its bytes are never copied.
  PushOutcome Push(const std::string& ns, const std::string& key,
                   SharedBytes value);

  /// BLPOP-style pop of up to `max_values` (<= 64) values from list `key`,
  /// waiting up to `wait_s` while the list is empty (0 returns
  /// immediately). Bills one request plus popped bytes. Blocking (Holds
  /// the op latency). Returns a possibly-empty vector of the very buffers
  /// that were pushed.
  Result<std::vector<SharedBytes>> BlockingPopAll(const std::string& ns,
                                                  const std::string& key,
                                                  int max_values,
                                                  double wait_s);

 private:
  struct Namespace {
    double first_use_at = -1.0;  ///< < 0 until the first data-plane call
    std::shared_ptr<InboxLists> lists;
    std::vector<std::unique_ptr<RateLimiter>> shard_limiters;
  };

  Namespace* Find(const std::string& name);
  /// Admission delay on the shard owning `key` (cluster slot by hash).
  double ShardDelay(Namespace* ns, const std::string& key);
  /// Bills one request (+ bytes) and starts the node-billing window.
  void BillRequest(Namespace* ns, uint64_t bytes);

  sim::Simulation* sim_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  Rng rng_;
  std::map<std::string, Namespace> namespaces_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_KVSTORE_H_
