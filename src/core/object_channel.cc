#include "core/object_channel.h"

#include <functional>
#include <string_view>

#include "common/strings.h"
#include "sim/simulation.h"

namespace fsd::core {
namespace {

/// The source named by a listed key "{phase}/{target}/{source}_{target}.ext".
Result<int32_t> KeySource(std::string_view key) {
  const std::string_view tail = key.substr(key.rfind('/') + 1);
  return ParseFrameInt(tail.substr(0, tail.find('_')));
}

}  // namespace

std::string ObjectChannel::BucketName(int32_t target,
                                      const FsdOptions& options) {
  return StrFormat("%sbucket-%d", options.channel_scope.c_str(),
                   target % options.num_buckets);
}

std::string ObjectChannel::ObjectKey(int32_t phase, int32_t source,
                                     int32_t target, bool empty_marker) {
  return StrFormat("%d/%d/%d_%d.%s", phase, target, source, target,
                   empty_marker ? "nul" : "dat");
}

Status ObjectChannel::Provision(cloud::CloudEnv* cloud,
                                const FsdOptions& options) {
  for (int32_t b = 0; b < options.num_buckets; ++b) {
    const std::string bucket =
        StrFormat("%sbucket-%d", options.channel_scope.c_str(), b);
    if (!cloud->objects().BucketExists(bucket)) {
      FSD_RETURN_IF_ERROR(cloud->objects().CreateBucket(bucket));
    }
  }
  return Status::OK();
}

Status ObjectChannel::SendRows(WorkerEnv* env, int32_t phase,
                               const linalg::ActivationRows& source,
                               const std::vector<SendSpec>& sends) {
  if (sends.empty()) return Status::OK();
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  // One unbounded chunk per target (object payloads are size-free); targets
  // taking the .nul-marker path never encode at all.
  FSD_ASSIGN_OR_RETURN(std::vector<EncodeResult> encoded,
                       EncodeSends(env, &metrics, source, sends,
                                   /*max_chunk_bytes=*/0, options.nul_markers));

  // Every send yields exactly one object (.dat or .nul); non-blocking
  // multi-threaded PUTs ride the IPC lanes.
  cloud::CloudEnv* cloud = env->cloud;
  std::vector<std::function<void()>> puts;
  for (size_t s = 0; s < sends.size(); ++s) {
    // No chunk: a 0-byte marker — the target learns there is nothing to
    // read.
    const bool is_nul = encoded[s].chunks.empty();
    Bytes body;
    if (is_nul) {
      ++metrics.puts_nul;
    } else {
      FSD_CHECK_EQ(encoded[s].chunks.size(), 1u);
      body = std::move(encoded[s].chunks[0].wire);
      ++metrics.puts_dat;
    }
    puts.push_back(
        [cloud, bucket = BucketName(sends[s].target, options),
         key = ObjectKey(phase, env->worker_id, sends[s].target, is_nul),
         body = std::make_shared<const Bytes>(std::move(body))]() {
          cloud->objects().Put(bucket, key, body);
        });
  }
  return DispatchOnLanes(env, cloud->latency().object_put.median_s,
                         std::move(puts));
}

Result<PollResult> ObjectChannel::PollStep(WorkerEnv* env, int32_t phase,
                                          const PendingSources& pending,
                                          bool /*first*/) {
  const FsdOptions& options = *env->options;
  LayerMetrics& metrics = env->metrics->Layer(phase);
  const std::string bucket = BucketName(env->worker_id, options);
  FSD_ASSIGN_OR_RETURN(
      std::vector<cloud::ObjectMeta> handles,
      env->cloud->objects().List(
          bucket, StrFormat("%d/%d/", phase, env->worker_id)));
  ++metrics.lists;

  // Decide which handles to fetch this round. A ".nul" completes its
  // source without a GET; sources already received are not read again.
  PollResult poll;
  std::vector<std::pair<int32_t, const std::string*>> to_get;
  size_t pending_nuls = 0;
  for (const cloud::ObjectMeta& meta : handles) {
    FSD_ASSIGN_OR_RETURN(const int32_t source, KeySource(meta.key));
    if (meta.key.ends_with(".nul")) {
      poll.completed.push_back(source);
      pending_nuls += pending.contains(source);
    } else if (pending.contains(source)) {
      to_get.emplace_back(source, &meta.key);
    } else {
      ++metrics.redundant_skipped;
    }
  }
  if (to_get.empty()) {
    // Nothing new this scan; brief back-off before re-listing keeps the
    // LIST count (and cost) down, as in the paper's optimization. The
    // receive loop sleeps it as the round's window. No back-off once the
    // listed .nuls complete the phase.
    if (pending_nuls < pending.size()) {
      poll.service_s = options.object_scan_interval_s;
    }
    return poll;
  }

  // Parallel GETs on the IPC lanes; the receive loop charges their
  // makespan, with the fetched bodies' decode, as the round's window.
  std::vector<double> latencies;
  for (const auto& [source, key] : to_get) {
    cloud::ObjectStore::GetOutcome got =
        env->cloud->objects().Get(bucket, *key);
    ++metrics.gets;
    if (!got.status.ok()) return got.status;
    latencies.push_back(got.latency);
    poll.chunks.push_back(
        ReceivedChunk{source, /*seq=*/0, /*total=*/1, std::move(got.body)});
  }
  poll.service_s = sim::ParallelMakespan(latencies, options.io_lanes);
  return poll;
}

}  // namespace fsd::core
