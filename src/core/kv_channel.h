// KvChannel — FSD-Inf-KV: the in-memory key-value channel extension.
//
// Rationale (FMI, Copik et al.; lambda-scale warm-state serving): a
// Redis/ElastiCache-style cache reaches sub-millisecond operation latency —
// one to two orders of magnitude below pub-sub/queue and object-storage
// APIs — which dominates end-to-end latency for the small activation
// payloads sparse inference exchanges. The trade-off is a standing
// node-hour cost and per-byte processing charges, so request-priced object
// storage still wins on dollars at large volumes (see cost_model.h).
//
// Send path: activation rows are packed into value-capped chunks (same NNZ
// heuristic as the queue channel), prefixed with a (source, seq, total)
// varint header, and RPUSHed onto the target's per-phase inbox list
// "p{phase}/w{target}" in the run's namespace. Pushes are dispatched on the
// worker's IPC lanes and overlap the subsequent compute.
//
// Receive path: the poll step blocking-pops the worker's own inbox list and
// parses each value's header (DecodeInboxPop); the pop bills every popped
// byte, headers included. CommChannel::ReceiveRows runs it until every
// source is complete, drops any duplicate (source, seq), and charges the
// round one window on the bodies it accepted. Pops are destructive, so
// there is no delete call; phases have dedicated lists, so there is no
// cross-phase stash either.
#ifndef FSD_CORE_KV_CHANNEL_H_
#define FSD_CORE_KV_CHANNEL_H_

#include <string>
#include <vector>

#include "core/channel.h"
#include "core/serialization.h"

namespace fsd::core {

/// Inbox value layout: varint(source), varint(seq), varint(total), chunk
/// wire. Shared with the direct channel, whose KV relay fallback must stay
/// byte-identical to a KvChannel send so relay costs meter the same way.
Bytes EncodeInboxValue(int32_t source, int32_t seq, int32_t total,
                       Bytes wire);

/// Parses one inbox value into a chunk read in place. DataLoss on a
/// truncated value, a header field above INT32_MAX, or a (seq, total) that
/// could never complete its source.
Result<ReceivedChunk> DecodeInboxValue(SharedBytes value);

/// Parses one pop's inbox values, in pop order, onto `chunks` and returns
/// the popped byte total (headers and redundant values included), which a
/// KV pop bills. The KV and direct channels' poll steps share it.
Result<uint64_t> DecodeInboxPop(std::vector<SharedBytes> values,
                                std::vector<ReceivedChunk>* chunks);

class KvChannel : public CommChannel {
 public:
  KvChannel() = default;

  /// Creates the run's namespace (offline step; node billing starts).
  static Status Provision(cloud::CloudEnv* cloud, const FsdOptions& options);

  /// Creates namespace `ns` with the configured shard count unless it
  /// already exists (shared with the direct channel's relay namespace).
  static Status EnsureNamespace(cloud::CloudEnv* cloud, const std::string& ns,
                                const FsdOptions& options);

  /// Deletes the run's namespace, billing node time for its lifetime.
  static Status Teardown(cloud::CloudEnv* cloud, const FsdOptions& options);

  static std::string NamespaceName(const FsdOptions& options);
  /// Inbox list key "p{phase}/w{target}".
  static std::string InboxKey(int32_t phase, int32_t target);

  std::string_view name() const override { return "kv"; }

  Status SendRows(WorkerEnv* env, int32_t phase,
                  const linalg::ActivationRows& source,
                  const std::vector<SendSpec>& sends) override;

 protected:
  /// One blocking pop of the worker's inbox list.
  Result<PollResult> PollStep(WorkerEnv* env, int32_t phase,
                              const PendingSources& pending,
                              bool first) override;
};

}  // namespace fsd::core

#endif  // FSD_CORE_KV_CHANNEL_H_
