// Billing ledger: records every billable event in the simulated cloud.
//
// The ledger is the simulation's equivalent of the AWS Cost & Usage report
// the paper uses in §VI-F to validate its cost model: experiments read
// "actual" costs from here and compare them against the analytical model.
#ifndef FSD_CLOUD_BILLING_H_
#define FSD_CLOUD_BILLING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cloud/pricing.h"

namespace fsd::cloud {

/// Billable usage dimensions (the quantities in cost-model Eqs. 4-7).
enum class BillingDimension : int {
  kFaasInvocation = 0,   ///< P (per invocation)
  kFaasRuntimeMbSec,     ///< P * T-bar * M (MB-seconds)
  kPubSubPublishChunk,   ///< S (64 KiB billed publish chunks)
  kPubSubDeliveryByte,   ///< Z (bytes transferred pub-sub -> queue)
  kQueueApiCall,         ///< Q (queue API requests)
  kObjectPut,            ///< V
  kObjectGet,            ///< R
  kObjectList,           ///< L
  kKvRequest,            ///< K (KV push/pop requests)
  kKvProcessedByte,      ///< B (payload bytes processed by the cache)
  kKvNodeSecond,         ///< cache-node seconds (priced per hour)
  kP2pConnection,        ///< established NAT-punched links (per pair)
  kP2pByte,              ///< bytes shipped over punched links
  kVmSecond,             ///< VM runtime seconds (priced per type)
  kDimensionCount,
};

std::string_view BillingDimensionName(BillingDimension dim);

/// Aggregated usage + cost for one dimension.
struct BillingLine {
  uint64_t events = 0;    ///< number of Record() calls
  double quantity = 0.0;  ///< dimension-specific quantity (requests, bytes..)
  double cost = 0.0;      ///< USD
};

/// Append-only cost aggregation; one ledger per experiment/run.
class BillingLedger {
 public:
  explicit BillingLedger(PricingConfig pricing = {})
      : pricing_(std::move(pricing)) {}

  const PricingConfig& pricing() const { return pricing_; }

  /// Records `quantity` units on `dim` at the dimension's catalogue price.
  void Record(BillingDimension dim, double quantity) {
    RecordCost(dim, quantity, quantity * UnitPrice(dim));
  }

  /// Records usage with an explicit cost (e.g. VM seconds priced per type).
  void RecordCost(BillingDimension dim, double quantity, double cost) {
    BillingLine& line = lines_[static_cast<int>(dim)];
    ++line.events;
    line.quantity += quantity;
    line.cost += cost;
  }

  /// Catalogue unit price for a dimension (0 for per-type dimensions).
  double UnitPrice(BillingDimension dim) const;

  const BillingLine& line(BillingDimension dim) const {
    return lines_[static_cast<int>(dim)];
  }

  /// Total cost across all dimensions.
  double TotalCost() const;

  /// Multi-line human-readable breakdown.
  std::string ToString() const;

 private:
  PricingConfig pricing_;
  BillingLine lines_[static_cast<int>(BillingDimension::kDimensionCount)];
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_BILLING_H_
