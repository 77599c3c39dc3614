// DirectChannel — FSD-Inf-Direct: NAT-punched worker-to-worker links.
//
// Rationale (FMI, Copik et al.): serverless functions cannot accept inbound
// connections, but a coordinator-brokered NAT hole punch gives each worker
// pair a direct TCP link — removing the managed-service hop every other
// backend pays per message. Established links carry sub-millisecond sends
// with no per-request charge and no service-side rate cap; the costs are a
// per-connection setup charge (quadratic in P) and per-byte transfer
// pricing, which is what makes "direct" a latency play for chatty phases at
// large P rather than a universal win (see cost_model.h).
//
// Punching is not guaranteed: a deterministic per-pair fraction of links
// (symmetric / carrier-grade NATs) fails to punch, and those pairs fall
// back to a KV relay — the same namespace machinery as FSD-Inf-KV, with
// byte-identical values, so relayed traffic meters exactly like KV traffic.
//
// Send path: rows are packed into value-capped chunks (the KV value cap),
// headed with (source, seq, total), then shipped over the punched link —
// or RPUSHed onto the relay inbox when the pair never punched. Dispatch
// rides the worker's IPC lanes and overlaps compute, like every backend.
//
// Fabric and relay inboxes share KvChannel::InboxKey's "p{phase}/w{target}".
//
// Receive path: each poll step blocking-pops the fabric inbox, or the relay
// inbox once the pending sources that punched are done; while both can
// deliver, steps alternate so neither path starves the other. Both pops
// parse values with KV's DecodeInboxPop, and a relay pop bills its popped
// bytes as a KV pop does. CommChannel::ReceiveRows charges each round one
// window on the bodies it accepted: inbox headers, redundant values and
// empty pops are not charged.
#ifndef FSD_CORE_DIRECT_CHANNEL_H_
#define FSD_CORE_DIRECT_CHANNEL_H_

#include <string>
#include <vector>

#include "core/channel.h"
#include "core/serialization.h"

namespace fsd::core {

class DirectChannel : public CommChannel {
 public:
  DirectChannel() = default;

  /// Creates the run's punch-brokering session and its KV relay namespace
  /// (offline step; an unused relay namespace bills nothing).
  static Status Provision(cloud::CloudEnv* cloud, const FsdOptions& options);

  /// Tears down the session (links close free) and deletes the relay
  /// namespace, billing its node time if any pair actually relayed.
  static Status Teardown(cloud::CloudEnv* cloud, const FsdOptions& options);

  static std::string SessionName(const FsdOptions& options);
  static std::string RelayNamespaceName(const FsdOptions& options);

  std::string_view name() const override { return "direct"; }

  Status SendRows(WorkerEnv* env, int32_t phase,
                  const linalg::ActivationRows& source,
                  const std::vector<SendSpec>& sends) override;

 protected:
  /// One blocking pop of the fabric inbox or of the relay inbox.
  Result<PollResult> PollStep(WorkerEnv* env, int32_t phase,
                              const PendingSources& pending,
                              bool first) override;

 private:
  /// Whether this receive's next pop is the relay's, while both paths can
  /// deliver.
  bool relay_turn_ = false;
};

}  // namespace fsd::core

#endif  // FSD_CORE_DIRECT_CHANNEL_H_
