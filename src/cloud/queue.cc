#include "cloud/queue.h"

#include <algorithm>

namespace fsd::cloud {

uint64_t QueueMessage::SizeBytes() const {
  uint64_t size = body->size();
  for (const auto& [key, value] : attributes) {
    size += key.size() + value.size() + 16;  // per-attribute envelope
  }
  return size;
}

Status QueueService::CreateQueue(const std::string& name,
                                 QueueOptions options) {
  if (queues_.contains(name)) {
    return Status::AlreadyExists("queue exists: " + name);
  }
  FSD_CHECK_GE(options.num_shards, 1);
  Queue queue;
  queue.options = options;
  queue.shards.resize(options.num_shards);
  queue.arrival_signal = sim_->MakeSignal();
  queues_.emplace(name, std::move(queue));
  return Status::OK();
}

bool QueueService::QueueExists(const std::string& name) const {
  return queues_.contains(name);
}

QueueService::Queue* QueueService::Find(const std::string& name) {
  auto it = queues_.find(name);
  return it == queues_.end() ? nullptr : &it->second;
}

const QueueService::Queue* QueueService::Find(const std::string& name) const {
  auto it = queues_.find(name);
  return it == queues_.end() ? nullptr : &it->second;
}

Status QueueService::Deliver(const std::string& name, QueueMessage message) {
  FSD_CHECK(message.body != nullptr);
  Queue* queue = Find(name);
  if (queue == nullptr) return Status::NotFound("no such queue: " + name);
  message.id = next_message_id_++;
  StoredMessage stored{std::move(message), /*visible_at=*/0.0};
  queue->shards[queue->next_shard % queue->shards.size()].push_back(
      std::move(stored));
  ++queue->next_shard;
  // Wake any long-pollers, then arm a fresh signal for the next arrival.
  queue->arrival_signal->Fire();
  queue->arrival_signal = sim_->MakeSignal();
  return Status::OK();
}

std::vector<QueueMessage> QueueService::Gather(Queue* queue, int limit,
                                               bool sample_shards) {
  std::vector<QueueMessage> out;
  const double now = sim_->Now();
  for (auto& shard : queue->shards) {
    if (static_cast<int>(out.size()) >= limit) break;
    if (sample_shards &&
        !rng_.NextBool(queue->options.short_poll_shard_prob)) {
      continue;  // short polling skipped this backend server
    }
    for (StoredMessage& stored : shard) {
      if (static_cast<int>(out.size()) >= limit) break;
      if (stored.visible_at > now) continue;  // in flight
      stored.visible_at = now + queue->options.visibility_timeout_s;
      out.push_back(stored.message);
    }
  }
  return out;
}

Result<std::vector<QueueMessage>> QueueService::Receive(
    const std::string& name, int max_messages, double wait_s) {
  Queue* queue = Find(name);
  if (queue == nullptr) return Status::NotFound("no such queue: " + name);
  if (max_messages < 1 || max_messages > kMaxMessagesPerReceive) {
    return Status::InvalidArgument("max_messages must be in [1, 10]");
  }
  billing_->Record(BillingDimension::kQueueApiCall, 1);

  const bool long_poll = wait_s > 0.0;
  const double deadline = sim_->Now() + wait_s;
  std::vector<QueueMessage> got =
      Gather(queue, max_messages, /*sample_shards=*/!long_poll);
  while (long_poll && got.empty()) {
    const double remaining = deadline - sim_->Now();
    if (remaining <= 0.0) break;
    // Block until a new arrival or the long-poll window closes. The service
    // re-checks after each wake because another consumer may have raced us.
    std::shared_ptr<sim::SimSignal> signal = queue->arrival_signal;
    if (!sim_->WaitSignal(signal.get(), remaining)) break;
    got = Gather(queue, max_messages, /*sample_shards=*/false);
  }

  uint64_t bytes = 0;
  for (const QueueMessage& m : got) bytes += m.SizeBytes();
  sim_->Hold(latency_->queue_receive.Sample(&rng_, bytes));
  return got;
}

Status QueueService::DeleteMessages(const std::string& name,
                                    const std::vector<uint64_t>& ids) {
  Queue* queue = Find(name);
  if (queue == nullptr) return Status::NotFound("no such queue: " + name);
  if (ids.size() > static_cast<size_t>(kMaxMessagesPerReceive)) {
    return Status::InvalidArgument("delete batch limited to 10 messages");
  }
  billing_->Record(BillingDimension::kQueueApiCall, 1);
  for (auto& shard : queue->shards) {
    auto new_end = std::remove_if(
        shard.begin(), shard.end(), [&ids](const StoredMessage& stored) {
          return std::find(ids.begin(), ids.end(), stored.message.id) !=
                 ids.end();
        });
    shard.erase(new_end, shard.end());
  }
  sim_->Hold(latency_->queue_delete.Sample(&rng_));
  return Status::OK();
}

Result<size_t> QueueService::ApproximateDepth(const std::string& name) const {
  const Queue* queue = Find(name);
  if (queue == nullptr) return Status::NotFound("no such queue: " + name);
  size_t depth = 0;
  for (const auto& shard : queue->shards) depth += shard.size();
  return depth;
}

}  // namespace fsd::cloud
