#include "core/queue_channel.h"

#include <functional>

#include "common/strings.h"

namespace fsd::core {
namespace {

constexpr char kAttrTarget[] = "target";
constexpr char kAttrSource[] = "src";
constexpr char kAttrPhase[] = "phase";
constexpr char kAttrSeq[] = "seq";
constexpr char kAttrTotal[] = "total";

}  // namespace

std::string QueueChannel::TopicName(int32_t source,
                                    const FsdOptions& options) {
  return StrFormat("%stopic-%d", options.channel_scope.c_str(),
                   source % options.num_topics);
}

std::string QueueChannel::QueueName(int32_t worker,
                                    const FsdOptions& options) {
  return StrFormat("%squeue-%d", options.channel_scope.c_str(), worker);
}

Status QueueChannel::Provision(cloud::CloudEnv* cloud,
                               const FsdOptions& options) {
  for (int32_t t = 0; t < options.num_topics; ++t) {
    const std::string topic = TopicName(t, options);
    if (!cloud->pubsub().TopicExists(topic)) {
      FSD_RETURN_IF_ERROR(cloud->pubsub().CreateTopic(topic));
    }
  }
  for (int32_t n = 0; n < options.num_workers; ++n) {
    const std::string queue = QueueName(n, options);
    if (!cloud->queues().QueueExists(queue)) {
      FSD_RETURN_IF_ERROR(cloud->queues().CreateQueue(queue));
    }
    // Any worker may publish on any topic shard; the filter policy routes
    // messages whose "target" attribute names this worker.
    cloud::FilterPolicy policy;
    policy.equals[kAttrTarget] = {StrFormat("%d", n)};
    for (int32_t t = 0; t < options.num_topics; ++t) {
      FSD_RETURN_IF_ERROR(
          cloud->pubsub().Subscribe(TopicName(t, options), queue, policy));
    }
  }
  return Status::OK();
}

Status QueueChannel::SendRows(WorkerEnv* env, int32_t phase,
                              const linalg::ActivationRows& source,
                              const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  FSD_ASSIGN_OR_RETURN(
      std::vector<EncodeResult> encoded,
      EncodeSends(env, &metrics, source, sends, options.max_message_bytes,
                  /*skip_empty=*/false));

  // Frame per-target messages (the send buffer Xsend_list) and pop publish
  // batches of <=10 messages and <=256 KiB (pop_batches in Algorithm 1).
  // Messages for different targets may share one publish — the filter
  // policy splits them downstream.
  cloud::CloudEnv* cloud = env->cloud;
  const std::string topic = TopicName(env->worker_id, options);
  const uint64_t increment =
      cloud->billing().pricing().pubsub_billing_increment_bytes;
  std::vector<std::function<void()>> publishes;
  std::vector<cloud::QueueMessage> batch;
  uint64_t batch_bytes = 0;
  auto flush = [&]() {
    if (batch.empty()) return;
    // Mirror the service's batch-level 64 KiB-increment billing (the
    // paper's per-layer S counter). Every message fans out to exactly one
    // queue (its target's filter), so the service bills delivery bytes =
    // message sizes incl. attribute envelopes — mirrored here so the cost
    // model's Z term is exact.
    metrics.publish_chunks += BilledIncrementChunks(batch_bytes, increment);
    metrics.send_billed_bytes += static_cast<int64_t>(batch_bytes);
    publishes.push_back(
        [cloud, topic, messages = std::move(batch)]() mutable {
          cloud->pubsub().PublishBatch(topic, std::move(messages));
        });
    batch.clear();
    batch_bytes = 0;
  };
  for (size_t s = 0; s < sends.size(); ++s) {
    const int32_t total = static_cast<int32_t>(encoded[s].chunks.size());
    for (int32_t seq = 0; seq < total; ++seq) {
      cloud::QueueMessage msg;
      msg.body = std::make_shared<const Bytes>(
          std::move(encoded[s].chunks[seq].wire));
      msg.attributes[kAttrTarget] = StrFormat("%d", sends[s].target);
      msg.attributes[kAttrSource] = StrFormat("%d", env->worker_id);
      msg.attributes[kAttrPhase] = StrFormat("%d", phase);
      msg.attributes[kAttrSeq] = StrFormat("%d", seq);
      msg.attributes[kAttrTotal] = StrFormat("%d", total);
      const uint64_t size = msg.SizeBytes();
      const bool overflow =
          batch_bytes + size > cloud::kMaxPublishBytes ||
          batch.size() >= static_cast<size_t>(cloud::kMaxMessagesPerPublish);
      if (!options.greedy_packing || overflow) flush();
      batch.push_back(std::move(msg));
      batch_bytes += size;
      if (!options.greedy_packing) flush();
    }
  }
  flush();
  metrics.publishes += static_cast<int64_t>(publishes.size());
  return DispatchOnLanes(env, cloud->latency().pubsub_publish.median_s,
                         std::move(publishes));
}

Result<PollResult> QueueChannel::PollStep(WorkerEnv* env, int32_t phase,
                                         const PendingSources& /*pending*/,
                                         bool /*first*/) {
  // Drain the stash first: chunks for this phase may have arrived while an
  // earlier phase was received. Only another phase's receive fills it, so
  // it can only hold this phase's chunks on a receive's first round.
  PollResult poll;
  if (auto it = stash_.find(phase); it != stash_.end()) {
    poll.chunks = std::move(it->second);
    stash_.erase(it);
    return poll;
  }

  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const std::string my_queue = QueueName(env->worker_id, options);
  FSD_ASSIGN_OR_RETURN(
      std::vector<cloud::QueueMessage> messages,
      env->cloud->queues().Receive(my_queue, cloud::kMaxMessagesPerReceive,
                                   options.poll_wait_s));
  ++metrics.polls;
  if (messages.empty()) {
    ++metrics.empty_polls;
    return poll;
  }
  metrics.msgs_received += static_cast<int64_t>(messages.size());
  std::vector<uint64_t> to_delete;
  for (cloud::QueueMessage& msg : messages) {
    to_delete.push_back(msg.id);
    // A missing attribute reads as "", which fails the parse too.
    auto field = [&msg](const char* key) {
      return ParseFrameInt(msg.attributes[key]);
    };
    FSD_ASSIGN_OR_RETURN(const int32_t msg_phase, field(kAttrPhase));
    FSD_ASSIGN_OR_RETURN(const int32_t source, field(kAttrSource));
    FSD_ASSIGN_OR_RETURN(const int32_t seq, field(kAttrSeq));
    FSD_ASSIGN_OR_RETURN(const int32_t total, field(kAttrTotal));
    FSD_RETURN_IF_ERROR(CheckChunkIndex(seq, total));
    ReceivedChunk chunk{source, seq, total, std::move(msg.body)};
    if (msg_phase != phase) {
      stash_[msg_phase].push_back(std::move(chunk));
    } else {
      poll.chunks.push_back(std::move(chunk));
    }
  }
  // Delete the round's messages once they all parsed, as Algorithm 1
  // deletes what it processed; a failed delete still counts.
  ++metrics.deletes;
  FSD_RETURN_IF_ERROR(
      env->cloud->queues().DeleteMessages(my_queue, to_delete));
  return poll;
}

}  // namespace fsd::core
