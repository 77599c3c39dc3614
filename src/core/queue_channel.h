// QueueChannel — FSD-Inf-Queue (paper §III-A, Algorithm 1, Figure 2).
//
// Send path: activation rows are packed into size-capped byte strings with
// the NNZ heuristic, grouped into <=10-message / <=256 KiB publish batches
// (reducing API calls and cost), and published to topic-{m % num_topics}.
// Service-side filter policies fan each message out to the dedicated queue
// of its target worker, so consumers never parse unwanted messages.
// Publishing is modelled on the worker's IPC thread pool: the worker pays
// serialization CPU, while the publish API calls run on parallel lanes that
// overlap the subsequent local compute.
//
// Receive path: each poll step long-polls the worker's own queue (up to 10
// messages per receive), stashes chunks of other phases (a fast upstream
// worker may already be sending layer k+1) for that phase's first step,
// and deletes the round's messages once their framing attributes all
// parsed (a framing failure leaves them for redelivery; a chunk the
// receive loop then rejects, e.g. for a total that disagrees with its
// source's earlier chunks, is already deleted). Per-source chunk counts
// ride in message attributes; CommChannel::ReceiveRows drops redeliveries,
// charges the round one window on the bodies it accepted, and stops once
// every source is complete.
#ifndef FSD_CORE_QUEUE_CHANNEL_H_
#define FSD_CORE_QUEUE_CHANNEL_H_

#include <map>
#include <string>
#include <vector>

#include "core/channel.h"
#include "core/serialization.h"

namespace fsd::core {

class QueueChannel : public CommChannel {
 public:
  /// Binds the channel to one worker's execution (stash state is per
  /// worker). Resources must have been provisioned beforehand.
  QueueChannel() = default;

  /// Pre-creates topics, per-worker queues and filter-policy subscriptions
  /// (offline step; no inference-time cost, matching the paper).
  static Status Provision(cloud::CloudEnv* cloud, const FsdOptions& options);

  static std::string TopicName(int32_t source, const FsdOptions& options);
  static std::string QueueName(int32_t worker, const FsdOptions& options);

  std::string_view name() const override { return "queue"; }

  Status SendRows(WorkerEnv* env, int32_t phase,
                  const linalg::ActivationRows& source,
                  const std::vector<SendSpec>& sends) override;

 protected:
  /// One long poll of the worker's queue; a receive's first round drains
  /// the stash instead when it holds this phase's chunks.
  Result<PollResult> PollStep(WorkerEnv* env, int32_t phase,
                              const PendingSources& pending,
                              bool first) override;

 private:
  /// Chunks that arrived while receiving a different phase.
  std::map<int32_t, std::vector<ReceivedChunk>> stash_;
};

}  // namespace fsd::core

#endif  // FSD_CORE_QUEUE_CHANNEL_H_
