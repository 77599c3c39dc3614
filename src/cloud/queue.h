// QueueService: SQS-like message queues for the simulated cloud.
//
// Faithful to the mechanisms FSD-Inference depends on (paper §III-A/C1):
//  - each queue's messages are spread over multiple backend "servers"
//    (shards); SHORT polling samples a subset of shards and can miss
//    messages, LONG polling visits all shards and waits up to `wait_s`
//  - at most 10 messages are returned per receive
//  - consumers delete messages explicitly; undeleted messages reappear
//    after the visibility timeout
//  - every API call (receive, delete batch) is billed
//  - bodies are shared immutable buffers: fan-out, receive and visibility-
//    timeout redelivery hand out the published buffer, never a copy
#ifndef FSD_CLOUD_QUEUE_H_
#define FSD_CLOUD_QUEUE_H_

#include <cstdint>
#include <deque>
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

/// Maximum messages returned by one receive call (AWS SQS limit).
constexpr int kMaxMessagesPerReceive = 10;

/// A queue message: opaque body plus string attributes (used for routing
/// metadata: source worker, layer, chunk counts). The body must be set
/// before the message is published or delivered.
struct QueueMessage {
  uint64_t id = 0;  // assigned by the service
  SharedBytes body;
  std::map<std::string, std::string> attributes;

  uint64_t SizeBytes() const;
};

struct QueueOptions {
  /// Backend servers the queue's messages are distributed over.
  int num_shards = 4;
  /// Received-but-undeleted messages reappear after this long.
  double visibility_timeout_s = 30.0;
  /// Probability that a short poll visits any given shard.
  double short_poll_shard_prob = 0.7;
};

class QueueService {
 public:
  QueueService(sim::Simulation* sim, BillingLedger* billing,
               const LatencyConfig* latency, Rng rng)
      : sim_(sim), billing_(billing), latency_(latency), rng_(rng) {}

  Status CreateQueue(const std::string& name, QueueOptions options = {});
  bool QueueExists(const std::string& name) const;

  /// Service-side delivery (pub-sub fan-out): enqueues without billing a
  /// queue API call (the transfer was billed by the pub-sub service).
  Status Deliver(const std::string& name, QueueMessage message);

  /// Receives up to `max_messages` (<=10). Blocking (Holds latency and, for
  /// long polls, up to `wait_s` while the queue is empty). wait_s == 0 is a
  /// short poll: a subset of shards is sampled and messages may be missed.
  /// Bills exactly one API call. Returns possibly-empty vector.
  Result<std::vector<QueueMessage>> Receive(const std::string& name,
                                            int max_messages, double wait_s);

  /// Deletes up to 10 messages by id; bills one API call. Blocking.
  Status DeleteMessages(const std::string& name,
                        const std::vector<uint64_t>& ids);

  /// Visible + in-flight message count (diagnostics/tests).
  Result<size_t> ApproximateDepth(const std::string& name) const;

 private:
  struct StoredMessage {
    QueueMessage message;
    double visible_at = 0.0;  // > now means in flight
  };
  struct Queue {
    QueueOptions options;
    std::vector<std::deque<StoredMessage>> shards;
    std::shared_ptr<sim::SimSignal> arrival_signal;
    uint64_t next_shard = 0;  // round-robin placement
  };

  Queue* Find(const std::string& name);
  const Queue* Find(const std::string& name) const;

  /// Gathers up to `limit` visible messages; `sample_shards` models short
  /// polling. Marks gathered messages in flight.
  std::vector<QueueMessage> Gather(Queue* queue, int limit,
                                   bool sample_shards);

  sim::Simulation* sim_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  Rng rng_;
  uint64_t next_message_id_ = 1;
  std::map<std::string, Queue> queues_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_QUEUE_H_
