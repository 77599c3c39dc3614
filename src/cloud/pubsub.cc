#include "cloud/pubsub.h"

#include <algorithm>

namespace fsd::cloud {

bool FilterPolicy::Matches(
    const std::map<std::string, std::string>& attributes) const {
  for (const auto& [key, allowed] : equals) {
    auto it = attributes.find(key);
    if (it == attributes.end()) return false;
    if (std::find(allowed.begin(), allowed.end(), it->second) ==
        allowed.end()) {
      return false;
    }
  }
  return true;
}

Status PubSubService::CreateTopic(const std::string& name) {
  if (topics_.contains(name)) {
    return Status::AlreadyExists("topic exists: " + name);
  }
  Topic topic;
  topic.limiter = std::make_unique<RateLimiter>(latency_->pubsub_topic_rps);
  topics_.emplace(name, std::move(topic));
  return Status::OK();
}

bool PubSubService::TopicExists(const std::string& name) const {
  return topics_.contains(name);
}

Status PubSubService::Subscribe(const std::string& topic,
                                const std::string& queue_name,
                                FilterPolicy policy) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound("no such topic: " + topic);
  if (!queues_->QueueExists(queue_name)) {
    return Status::NotFound("no such queue: " + queue_name);
  }
  it->second.subscriptions.push_back({queue_name, std::move(policy)});
  return Status::OK();
}

PubSubService::PublishOutcome PubSubService::PublishBatch(
    const std::string& topic, std::vector<QueueMessage> messages) {
  PublishOutcome outcome;
  auto it = topics_.find(topic);
  if (it == topics_.end()) {
    outcome.status = Status::NotFound("no such topic: " + topic);
    return outcome;
  }
  if (messages.empty() ||
      messages.size() > static_cast<size_t>(kMaxMessagesPerPublish)) {
    outcome.status =
        Status::InvalidArgument("publish batch must contain 1..10 messages");
    return outcome;
  }
  uint64_t total_bytes = 0;
  for (const QueueMessage& m : messages) {
    FSD_CHECK(m.body != nullptr);
    total_bytes += m.SizeBytes();
  }
  if (total_bytes > kMaxPublishBytes) {
    outcome.status = Status::ResourceExhausted(
        "publish batch exceeds 256 KiB payload limit");
    return outcome;
  }

  // Billing: publishes are billed in 64 KiB increments of the total batch
  // payload — a full 256 KiB publish (spread across up to 10 messages) is
  // billed as 4 requests (paper §IV-A1).
  const uint64_t increment =
      billing_->pricing().pubsub_billing_increment_bytes;
  const uint64_t chunks =
      std::max<uint64_t>(1, (total_bytes + increment - 1) / increment);
  billing_->Record(BillingDimension::kPubSubPublishChunk,
                   static_cast<double>(chunks));
  outcome.billed_chunks = chunks;

  Topic& t = it->second;
  const double queueing = t.limiter->AdmissionDelay(sim_->Now());
  const double api_latency =
      queueing + latency_->pubsub_publish.Sample(&rng_, total_bytes);
  outcome.latency = api_latency;

  // Service-side filtering + fan-out: deliveries are scheduled relative to
  // the publish completing, one fan-out hop per message per match.
  for (QueueMessage& m : messages) {
    for (const Subscription& sub : t.subscriptions) {
      if (!sub.policy.Matches(m.attributes)) continue;
      billing_->Record(BillingDimension::kPubSubDeliveryByte,
                       static_cast<double>(m.SizeBytes()));
      const double delivery_at =
          api_latency + latency_->pubsub_fanout.Sample(&rng_, m.SizeBytes());
      // Each matching queue gets its own message around the one shared
      // body buffer.
      sim_->ScheduleCallback(delivery_at, [this, queue_name = sub.queue_name,
                                           msg = m]() mutable {
        // Delivery failures (deleted queue) are dropped, as in SNS.
        queues_->Deliver(queue_name, std::move(msg)).ok();
      });
    }
  }
  outcome.status = Status::OK();
  return outcome;
}

}  // namespace fsd::cloud
