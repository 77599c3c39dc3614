// ObjectStore: S3-like object storage for the simulated cloud.
//
// Reproduces the properties FSD-Inf-Object depends on (paper §III-B):
//  - buckets with prefix-scoped LIST (paginated), PUT and GET
//  - requests billed per call, independent of object size (Eq. 7)
//  - per-bucket request-rate caps; using k buckets raises the aggregate
//    API limit k-fold, which is why the channel shards over buckets
//  - strong read-after-write consistency: an object is visible to LIST/GET
//    once its PUT completes (PUT latency models the upload)
#ifndef FSD_CLOUD_OBJECTSTORE_H_
#define FSD_CLOUD_OBJECTSTORE_H_

#include <cstdint>
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

/// LIST pagination size (AWS S3 list-objects-v2).
constexpr size_t kListPageSize = 1000;

struct ObjectMeta {
  std::string key;
  uint64_t size = 0;
};

class ObjectStore {
 public:
  ObjectStore(sim::Simulation* sim, BillingLedger* billing,
              const LatencyConfig* latency, Rng rng)
      : sim_(sim), billing_(billing), latency_(latency), rng_(rng) {}

  Status CreateBucket(const std::string& name);
  bool BucketExists(const std::string& name) const;

  struct PutOutcome {
    Status status;
    /// Upload round-trip latency (including rate-limit queueing). The
    /// object becomes visible at call time + latency.
    double latency = 0.0;
  };

  /// Non-blocking PUT: bills one PUT request, schedules visibility. The
  /// store keeps `body` by reference; it must not be null.
  PutOutcome Put(const std::string& bucket, const std::string& key,
                 SharedBytes body);

  struct GetOutcome {
    Status status;
    double latency = 0.0;
    /// The buffer the PUT stored (shared, never copied); null on failure.
    SharedBytes body;
  };

  /// Non-blocking GET: bills one GET request and returns the body plus the
  /// latency the caller must account before using it (enables parallel
  /// read lanes via sim::ParallelMakespan).
  GetOutcome Get(const std::string& bucket, const std::string& key);

  /// Blocking LIST of keys under `prefix` (lexicographic). Bills one LIST
  /// request per page. Returns only objects visible at call time.
  Result<std::vector<ObjectMeta>> List(const std::string& bucket,
                                       const std::string& prefix);

  /// Deletes an object (free on AWS; no billing dimension).
  Status Delete(const std::string& bucket, const std::string& key);

 private:
  struct StoredObject {
    SharedBytes body;
    double visible_at = 0.0;
  };
  struct Bucket {
    std::map<std::string, StoredObject> objects;  // ordered for LIST
    std::unique_ptr<RateLimiter> put_limiter;
    std::unique_ptr<RateLimiter> get_limiter;
    std::unique_ptr<RateLimiter> list_limiter;
  };

  Bucket* Find(const std::string& name);
  const Bucket* Find(const std::string& name) const;

  sim::Simulation* sim_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  Rng rng_;
  std::map<std::string, Bucket> buckets_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_OBJECTSTORE_H_
