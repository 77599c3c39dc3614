// ObjectChannel — FSD-Inf-Object (paper §III-B, Algorithm 2, Figure 3).
//
// Send path: each (source m -> target n) pair writes exactly one object per
// phase — "{phase}/{n}/{m}_{n}.dat" in bucket-{n % num_buckets}, or a
// 0-byte ".nul" marker when there is nothing to transmit. Objects can be
// arbitrarily large, so no chunking is needed. PUTs ride the worker's IPC
// lanes and overlap with compute.
//
// Receive path: each poll step LISTs the worker's own prefix "{phase}/{m}/"
// in bucket-{m % num_buckets}; ".nul" names complete a source without a
// GET, already-received sources are skipped (no redundant reads), and
// remaining ".dat" objects are fetched on parallel lanes; their makespan is
// the round's service time, which CommChannel::ReceiveRows charges in the
// round's one window with the fetched bodies. A round with nothing to
// fetch hands over the re-LIST back-off as its service time instead,
// unless its ".nul" markers complete the phase.
#ifndef FSD_CORE_OBJECT_CHANNEL_H_
#define FSD_CORE_OBJECT_CHANNEL_H_

#include <string>
#include <vector>

#include "core/channel.h"
#include "core/serialization.h"

namespace fsd::core {

class ObjectChannel : public CommChannel {
 public:
  ObjectChannel() = default;

  /// Pre-creates the bucket shards (offline step, as in the paper).
  static Status Provision(cloud::CloudEnv* cloud, const FsdOptions& options);

  static std::string BucketName(int32_t target, const FsdOptions& options);
  /// Key "{phase}/{target}/{source}_{target}" + (".dat" | ".nul").
  static std::string ObjectKey(int32_t phase, int32_t source, int32_t target,
                               bool empty_marker);

  std::string_view name() const override { return "object"; }

  Status SendRows(WorkerEnv* env, int32_t phase,
                  const linalg::ActivationRows& source,
                  const std::vector<SendSpec>& sends) override;

 protected:
  /// One LIST of the worker's prefix, then GETs of the fresh ".dat"s.
  Result<PollResult> PollStep(WorkerEnv* env, int32_t phase,
                              const PendingSources& pending,
                              bool first) override;
};

}  // namespace fsd::core

#endif  // FSD_CORE_OBJECT_CHANNEL_H_
