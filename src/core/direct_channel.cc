#include "core/direct_channel.h"

#include <functional>

#include "common/strings.h"
#include "core/kv_channel.h"

namespace fsd::core {
namespace {

/// Ensures the pair's link exists and accounts a fresh punch attempt.
/// Punching is mutual, so the fabric keys link state by the unordered
/// pair: whichever side asks first books the one connection/failure, and
/// the reverse direction's Connect is a free cache hit — never a second
/// charge for the same physical link.
/// Returns whether the pair is punched (false: the pair relays via KV).
Result<bool> EnsureLink(WorkerEnv* env, LayerMetrics* metrics,
                        const std::string& session, int32_t src,
                        int32_t dst) {
  cloud::P2pFabric::ConnectOutcome conn =
      env->cloud->p2p().Connect(session, src, dst);
  FSD_RETURN_IF_ERROR(conn.status);
  if (conn.fresh) {
    if (conn.punched) {
      ++metrics->direct_connects;
    } else {
      ++metrics->punch_failures;
    }
  }
  return conn.punched;
}

}  // namespace

std::string DirectChannel::SessionName(const FsdOptions& options) {
  return StrFormat("%sp2p", options.channel_scope.c_str());
}

std::string DirectChannel::RelayNamespaceName(const FsdOptions& options) {
  return StrFormat("%srelay", options.channel_scope.c_str());
}

Status DirectChannel::Provision(cloud::CloudEnv* cloud,
                                const FsdOptions& options) {
  const std::string session = SessionName(options);
  if (!cloud->p2p().SessionExists(session)) {
    FSD_RETURN_IF_ERROR(cloud->p2p().CreateSession(session));
  }
  return KvChannel::EnsureNamespace(cloud, RelayNamespaceName(options),
                                    options);
}

Status DirectChannel::Teardown(cloud::CloudEnv* cloud,
                               const FsdOptions& options) {
  const std::string session = SessionName(options);
  if (cloud->p2p().SessionExists(session)) {
    FSD_RETURN_IF_ERROR(cloud->p2p().DeleteSession(session));
  }
  const std::string relay = RelayNamespaceName(options);
  if (!cloud->kv().NamespaceExists(relay)) return Status::OK();
  return cloud->kv().DeleteNamespace(relay);
}

Status DirectChannel::SendRows(WorkerEnv* env, int32_t phase,
                               const linalg::ActivationRows& source,
                               const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const std::string session = SessionName(options);
  const int32_t me = env->worker_id;
  std::vector<bool> punched(sends.size());
  for (size_t s = 0; s < sends.size(); ++s) {
    FSD_ASSIGN_OR_RETURN(
        punched[s], EnsureLink(env, &metrics, session, me, sends[s].target));
  }
  // Chunks use the KV value cap (the relay must accept any chunk
  // verbatim); an empty send still produces one marker chunk so the
  // receiver's per-source accounting completes without data.
  FSD_ASSIGN_OR_RETURN(
      std::vector<EncodeResult> encoded,
      EncodeSends(env, &metrics, source, sends, options.kv_max_value_bytes,
                  /*skip_empty=*/false));

  // Punched values ship over the fabric (bytes billed at send); relayed
  // values are KV pushes, metered exactly like FSD-Inf-KV traffic so the
  // cost model's relay terms stay exact.
  cloud::CloudEnv* cloud = env->cloud;
  const std::string relay = RelayNamespaceName(options);
  std::vector<std::function<void()>> calls;
  for (size_t s = 0; s < sends.size(); ++s) {
    const int32_t target = sends[s].target;
    const int32_t total = static_cast<int32_t>(encoded[s].chunks.size());
    for (int32_t seq = 0; seq < total; ++seq) {
      SharedBytes value = std::make_shared<const Bytes>(EncodeInboxValue(
          me, seq, total, std::move(encoded[s].chunks[seq].wire)));
      const int64_t size = static_cast<int64_t>(value->size());
      std::string key = KvChannel::InboxKey(phase, target);
      if (punched[s]) {
        ++metrics.direct_msgs;
        metrics.direct_billed_bytes += size;
        calls.push_back([cloud, session, me, target, key = std::move(key),
                         value = std::move(value)]() mutable {
          cloud->p2p().Send(session, me, target, key, std::move(value));
        });
      } else {
        ++metrics.kv_pushes;
        ++metrics.relay_fallback_msgs;
        metrics.send_billed_bytes += size;
        calls.push_back([cloud, relay, key = std::move(key),
                         value = std::move(value)]() mutable {
          cloud->kv().Push(relay, key, std::move(value));
        });
      }
    }
  }
  return DispatchOnLanes(env, cloud->latency().p2p_send.median_s,
                         std::move(calls));
}

Result<PollResult> DirectChannel::PollStep(WorkerEnv* env, int32_t phase,
                                          const PendingSources& pending,
                                          bool first) {
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const std::string session = SessionName(options);
  const std::string inbox = KvChannel::InboxKey(phase, env->worker_id);
  if (first) relay_turn_ = false;
  // Punch outcomes are deterministic per ordered pair, so the receiver
  // knows which pending sources must relay (Connect is idempotent and
  // punching is mutual: asking from this side costs nothing extra). Only
  // ever block on an inbox that can still deliver: fully-punched phases
  // never touch the KV relay, and once every punched source completed, the
  // fabric pop (which nothing will ever feed again) is skipped instead of
  // burning its full wait before each relay pop. While both can deliver,
  // fabric and relay pops alternate so neither path starves the other.
  bool punched_pending = false;
  bool relay_pending = false;
  for (const auto& [source, progress] : pending) {
    FSD_ASSIGN_OR_RETURN(
        const bool punched,
        EnsureLink(env, &metrics, session, source, env->worker_id));
    (punched ? punched_pending : relay_pending) = true;
  }
  const bool relay = relay_pending && (relay_turn_ || !punched_pending);
  relay_turn_ = !relay;

  std::vector<SharedBytes> values;
  if (relay) {
    FSD_ASSIGN_OR_RETURN(
        values, env->cloud->kv().BlockingPopAll(
                    RelayNamespaceName(options), inbox,
                    cloud::kMaxValuesPerPop, options.kv_poll_wait_s));
    ++metrics.kv_pops;
    if (values.empty()) ++metrics.kv_empty_pops;
  } else {
    FSD_ASSIGN_OR_RETURN(
        values, env->cloud->p2p().BlockingPopAll(session, inbox,
                                                 cloud::kMaxValuesPerPop,
                                                 options.direct_poll_wait_s));
    ++metrics.direct_pops;
    if (values.empty()) ++metrics.direct_empty_pops;
  }
  PollResult poll;
  FSD_ASSIGN_OR_RETURN(const uint64_t popped,
                       DecodeInboxPop(std::move(values), &poll.chunks));
  if (relay) {
    // Relay pops bill the full values, headers included: the cache meters
    // what it moved, not what the receiver could use.
    metrics.recv_billed_bytes += static_cast<int64_t>(popped);
  }
  return poll;
}

}  // namespace fsd::core
