#include "cloud/billing.h"

#include "common/strings.h"

namespace fsd::cloud {

std::string_view BillingDimensionName(BillingDimension dim) {
  switch (dim) {
    case BillingDimension::kFaasInvocation:
      return "faas.invocations";
    case BillingDimension::kFaasRuntimeMbSec:
      return "faas.runtime_mb_sec";
    case BillingDimension::kPubSubPublishChunk:
      return "pubsub.publish_chunks";
    case BillingDimension::kPubSubDeliveryByte:
      return "pubsub.delivery_bytes";
    case BillingDimension::kQueueApiCall:
      return "queue.api_calls";
    case BillingDimension::kObjectPut:
      return "object.put";
    case BillingDimension::kObjectGet:
      return "object.get";
    case BillingDimension::kObjectList:
      return "object.list";
    case BillingDimension::kKvRequest:
      return "kv.requests";
    case BillingDimension::kKvProcessedByte:
      return "kv.processed_bytes";
    case BillingDimension::kKvNodeSecond:
      return "kv.node_seconds";
    case BillingDimension::kP2pConnection:
      return "p2p.connections";
    case BillingDimension::kP2pByte:
      return "p2p.bytes";
    case BillingDimension::kVmSecond:
      return "vm.seconds";
    case BillingDimension::kDimensionCount:
      break;
  }
  return "unknown";
}

double BillingLedger::UnitPrice(BillingDimension dim) const {
  switch (dim) {
    case BillingDimension::kFaasInvocation:
      return pricing_.faas_per_invocation;
    case BillingDimension::kFaasRuntimeMbSec:
      return pricing_.faas_per_mb_second;
    case BillingDimension::kPubSubPublishChunk:
      return pricing_.pubsub_per_publish_chunk;
    case BillingDimension::kPubSubDeliveryByte:
      return pricing_.pubsub_per_byte;
    case BillingDimension::kQueueApiCall:
      return pricing_.queue_per_api_call;
    case BillingDimension::kObjectPut:
      return pricing_.object_per_put;
    case BillingDimension::kObjectGet:
      return pricing_.object_per_get;
    case BillingDimension::kObjectList:
      return pricing_.object_per_list;
    case BillingDimension::kKvRequest:
      return pricing_.kv_per_request;
    case BillingDimension::kKvProcessedByte:
      return pricing_.kv_per_processed_byte;
    case BillingDimension::kKvNodeSecond:
      return 0.0;  // priced per hour at record time
    case BillingDimension::kP2pConnection:
      return pricing_.p2p_per_connection;
    case BillingDimension::kP2pByte:
      return pricing_.p2p_per_byte;
    case BillingDimension::kVmSecond:
      return 0.0;  // priced per instance type at record time
    case BillingDimension::kDimensionCount:
      break;
  }
  return 0.0;
}

double BillingLedger::TotalCost() const {
  double total = 0.0;
  for (const BillingLine& line : lines_) total += line.cost;
  return total;
}

std::string BillingLedger::ToString() const {
  std::string out;
  for (int i = 0; i < static_cast<int>(BillingDimension::kDimensionCount);
       ++i) {
    const BillingLine& line = lines_[i];
    if (line.events == 0) continue;
    out += StrFormat("  %-24s qty=%.0f cost=%s\n",
                     std::string(BillingDimensionName(
                                     static_cast<BillingDimension>(i)))
                         .c_str(),
                     line.quantity, HumanDollars(line.cost).c_str());
  }
  out += StrFormat("  %-24s cost=%s\n", "TOTAL",
                   HumanDollars(TotalCost()).c_str());
  return out;
}

}  // namespace fsd::cloud
