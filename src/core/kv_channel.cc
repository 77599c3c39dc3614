#include "core/kv_channel.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "codec/varint.h"
#include "common/strings.h"

namespace fsd::core {

Bytes EncodeInboxValue(int32_t source, int32_t seq, int32_t total,
                       Bytes wire) {
  Bytes out;
  out.reserve(wire.size() + 6);
  codec::PutVarint64(&out, static_cast<uint64_t>(source));
  codec::PutVarint64(&out, static_cast<uint64_t>(seq));
  codec::PutVarint64(&out, static_cast<uint64_t>(total));
  out.insert(out.end(), wire.begin(), wire.end());
  return out;
}

Result<ReceivedChunk> DecodeInboxValue(SharedBytes value) {
  ByteReader reader(*value);
  int32_t header[3];  // source, seq, total
  for (int32_t& field : header) {
    Result<uint64_t> read = codec::GetVarint64(&reader);
    if (!read.ok()) {
      // A truncated header reads past the value's end (OutOfRange); the
      // value is what is broken.
      return Status::DataLoss("bad inbox value header: " +
                              read.status().message());
    }
    const uint64_t raw = *read;
    if (raw > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
      return Status::DataLoss("inbox value header field exceeds int32");
    }
    field = static_cast<int32_t>(raw);
  }
  FSD_RETURN_IF_ERROR(CheckChunkIndex(header[1], header[2]));
  return ReceivedChunk{header[0], header[1], header[2], std::move(value),
                       reader.position()};
}

Result<uint64_t> DecodeInboxPop(std::vector<SharedBytes> values,
                                std::vector<ReceivedChunk>* chunks) {
  uint64_t popped = 0;
  for (SharedBytes& value : values) {
    popped += value->size();
    FSD_ASSIGN_OR_RETURN(ReceivedChunk chunk,
                         DecodeInboxValue(std::move(value)));
    chunks->push_back(std::move(chunk));
  }
  return popped;
}

std::string KvChannel::NamespaceName(const FsdOptions& options) {
  return StrFormat("%skv", options.channel_scope.c_str());
}

std::string KvChannel::InboxKey(int32_t phase, int32_t target) {
  return StrFormat("p%d/w%d", phase, target);
}

Status KvChannel::EnsureNamespace(cloud::CloudEnv* cloud,
                                  const std::string& ns,
                                  const FsdOptions& options) {
  if (cloud->kv().NamespaceExists(ns)) return Status::OK();
  cloud::KvNamespaceOptions ns_options;
  ns_options.num_shards = std::max<int32_t>(1, options.kv_shards);
  return cloud->kv().CreateNamespace(ns, ns_options);
}

Status KvChannel::Provision(cloud::CloudEnv* cloud,
                            const FsdOptions& options) {
  return EnsureNamespace(cloud, NamespaceName(options), options);
}

Status KvChannel::Teardown(cloud::CloudEnv* cloud, const FsdOptions& options) {
  const std::string ns = NamespaceName(options);
  if (!cloud->kv().NamespaceExists(ns)) return Status::OK();
  return cloud->kv().DeleteNamespace(ns);
}

Status KvChannel::SendRows(WorkerEnv* env, int32_t phase,
                           const linalg::ActivationRows& source,
                           const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  // Value-capped chunks; an empty send still produces one marker chunk so
  // the receiver's per-source accounting completes without data.
  FSD_ASSIGN_OR_RETURN(
      std::vector<EncodeResult> encoded,
      EncodeSends(env, &metrics, source, sends, options.kv_max_value_bytes,
                  /*skip_empty=*/false));

  cloud::CloudEnv* cloud = env->cloud;
  const std::string ns = NamespaceName(options);
  std::vector<std::function<void()>> pushes;
  for (size_t s = 0; s < sends.size(); ++s) {
    const int32_t total = static_cast<int32_t>(encoded[s].chunks.size());
    for (int32_t seq = 0; seq < total; ++seq) {
      SharedBytes value = std::make_shared<const Bytes>(
          EncodeInboxValue(env->worker_id, seq, total,
                           std::move(encoded[s].chunks[seq].wire)));
      // The cache meters processed bytes per request: a push processes the
      // whole value (header + chunk) — mirrored exactly for the cost model.
      metrics.send_billed_bytes += static_cast<int64_t>(value->size());
      pushes.push_back([cloud, ns, key = InboxKey(phase, sends[s].target),
                        value = std::move(value)]() mutable {
        cloud->kv().Push(ns, key, std::move(value));
      });
    }
  }
  metrics.kv_pushes += static_cast<int64_t>(pushes.size());
  return DispatchOnLanes(env, cloud->latency().kv_push.median_s,
                         std::move(pushes));
}

Result<PollResult> KvChannel::PollStep(WorkerEnv* env, int32_t phase,
                                      const PendingSources& /*pending*/,
                                      bool /*first*/) {
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  FSD_ASSIGN_OR_RETURN(
      std::vector<SharedBytes> values,
      env->cloud->kv().BlockingPopAll(NamespaceName(options),
                                      InboxKey(phase, env->worker_id),
                                      cloud::kMaxValuesPerPop,
                                      options.kv_poll_wait_s));
  ++metrics.kv_pops;
  if (values.empty()) ++metrics.kv_empty_pops;
  PollResult poll;
  FSD_ASSIGN_OR_RETURN(const uint64_t popped,
                       DecodeInboxPop(std::move(values), &poll.chunks));
  // The pop billed the full values, headers included: the service meters
  // what it moved, not what the receiver could use.
  metrics.recv_billed_bytes += static_cast<int64_t>(popped);
  return poll;
}

}  // namespace fsd::core
