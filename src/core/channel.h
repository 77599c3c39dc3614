// CommChannel: the fully serverless point-to-point communication abstraction
// (paper §III-A/B). Four backends implement it: QueueChannel (FSD-Inf-Queue:
// pub-sub + per-worker queues, §III-A), ObjectChannel (FSD-Inf-Object:
// sharded object storage, §III-B), and two extensions, KvChannel
// (FSD-Inf-KV: in-memory key-value inbox lists) and DirectChannel
// (FSD-Inf-Direct: NAT-punched links with a KV relay). The serial variant
// performs no communication and has no channel.
//
// The backends share one send/receive path: EncodeSends and DispatchOnLanes
// on the send side, and on the receive side one loop, CommChannel::
// ReceiveRows, which runs a backend's poll step until every source is
// complete and charges every round's deserialization by one rule. A
// backend adds only what it alone knows: resource naming and provisioning,
// message framing, the service calls of its send and of its poll step, and
// its own billing counters.
//
// The channel moves *phases* of activation rows. Phases 0..L-1 carry the
// x^{k-1} exchanges feeding each layer k; collective operations (barrier,
// reduce) reuse the same machinery under phase ids >= L, so MPI-style
// primitives (Send, Recv, Barrier, Reduce, Broadcast) all ride on one code
// path per backend.
#ifndef FSD_CORE_CHANNEL_H_
#define FSD_CORE_CHANNEL_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "cloud/cloud.h"
#include "common/result.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "core/serialization.h"
#include "linalg/spmm.h"

namespace fsd::core {

/// Per-worker execution environment threaded through channel calls.
struct WorkerEnv {
  cloud::FaasContext* faas = nullptr;
  cloud::CloudEnv* cloud = nullptr;
  const FsdOptions* options = nullptr;
  WorkerMetrics* metrics = nullptr;
  int32_t worker_id = 0;
  /// Set when any worker in the run failed; receive loops drain promptly
  /// instead of polling until their own runtime cap.
  const bool* abort = nullptr;

  Status CheckAbort() const {
    if (abort != nullptr && *abort) {
      return Status::Unavailable("run aborted by a failed peer");
    }
    return Status::OK();
  }
};

/// One phase send: ship the listed x rows (those present in the source)
/// to `target`.
struct SendSpec {
  int32_t target = 0;
  const std::vector<int32_t>* rows = nullptr;
};

/// What one receive hands back: the rows decoded from each received body,
/// in arrival order, unmerged. A later body wins a row id that two bodies
/// carry (an honest phase never repeats one: each row has one owner).
using ReceivedRows = std::vector<linalg::ActivationRows>;

/// One framed chunk a poll step delivered: chunk `seq` of `total` from
/// `source`, decoded in place from the buffer it arrived in, its row wire
/// starting at `offset` (past an inbox value's header; 0 for a queue
/// message or an object GET, which carry the row wire alone).
struct ReceivedChunk {
  int32_t source = 0;
  int32_t seq = 0;
  int32_t total = 0;
  SharedBytes buffer;
  size_t offset = 0;

  std::span<const uint8_t> wire() const {
    return std::span<const uint8_t>(*buffer).subspan(offset);
  }
  size_t size() const { return buffer->size() - offset; }
};

/// A pending source's progress: its announced chunk count (-1 until its
/// first chunk) and the chunks taken so far.
struct SourceProgress {
  int32_t expected = -1;
  std::set<int32_t> taken;
};

/// The sources a receive still waits on, as its poll steps read them.
using PendingSources = std::map<int32_t, SourceProgress>;

/// What one poll step hands the receive loop: the chunks its round
/// delivered, in arrival order; the sources it found complete without a
/// chunk (object .nul markers); and the service time the round still owes
/// that the poll call itself did not take (the object GET makespan, or its
/// re-LIST back-off when nothing was fresh).
struct PollResult {
  std::vector<ReceivedChunk> chunks;
  std::vector<int32_t> completed;
  double service_s = 0.0;
};

class CommChannel {
 public:
  virtual ~CommChannel() = default;
  virtual std::string_view name() const = 0;

  /// Dispatches one phase's sends. Non-blocking with respect to network
  /// time: the worker pays CPU (serialization/compression) and per-call
  /// dispatch overhead; transfers complete asynchronously so the caller can
  /// overlap communication with computation (Algorithms 1 & 2).
  virtual Status SendRows(WorkerEnv* env, int32_t phase,
                          const linalg::ActivationRows& source,
                          const std::vector<SendSpec>& sends) = 0;

  /// Blocks until every worker in `sources` has delivered its phase data;
  /// returns the decoded bodies in arrival order. Sources with nothing to
  /// send deliver an explicit empty marker (empty chunk / ".nul" object).
  /// One loop for every backend: each round checks abort and deadline and
  /// takes one PollStep; each accepted body decodes as a detached job, and
  /// the first decode error in arrival order surfaces once all are joined.
  /// One deserialization rule for every backend: a round takes at most one
  /// window, of its service_s plus its accepted body bytes at the
  /// deserialize rate. The window is slept when the round accepted a body
  /// or has service time; it counts one offload call only when a body was
  /// accepted.
  Result<ReceivedRows> ReceiveRows(WorkerEnv* env, int32_t phase,
                                   const std::vector<int32_t>& sources);

 protected:
  /// One round of ReceiveRows: the backend's service calls (its poll, and
  /// the queue's deletes), its framing parsed into chunks or
  /// completions, and its own receive counters. `pending` holds the sources
  /// not yet complete; `first` marks a receive's first round.
  virtual Result<PollResult> PollStep(WorkerEnv* env, int32_t phase,
                                      const PendingSources& pending,
                                      bool first) = 0;
};

/// Builds the channel implementation for a variant (nullptr for kSerial,
/// which performs no communication). One instance per worker: channels
/// carry per-worker receive state.
std::unique_ptr<CommChannel> MakeCommChannel(Variant variant);

/// Pre-creates the communication resources named by `options.channel_scope`
/// for the variant (topics/queues, buckets, or the KV namespace). Offline
/// step: not billed per request and not timed, matching the paper.
Status ProvisionChannelResources(cloud::CloudEnv* cloud,
                                 const FsdOptions& options);

/// Releases per-run channel resources. Queue/object resources are
/// request-priced and free to keep, so this is a no-op for them; the KV
/// namespace is deleted, which bills its node time.
Status TeardownChannelResources(cloud::CloudEnv* cloud,
                                const FsdOptions& options);

/// ---- the shared send/receive path (one definition across backends) ----
/// One definition keeps the ledger and the cost model's byte counters
/// byte-identical whichever backend runs them.

/// Plans, charges and encodes one phase's sends. Collects each send's rows
/// once (CollectRows), counts send targets and mapped/active rows, and
/// charges the serialization CPU for the planned raw bytes split over the
/// planned chunks on the IPC lanes. Each send's EncodeRows is its own
/// detached job (sim::Simulation::StartDetached: on the offload pool when
/// the sim has compute_threads > 0, inline at its start otherwise), so a
/// phase's encodes spread over the pool while the worker sleeps out the
/// charged window (FaasContext::SleepFor). The jobs are joined before
/// anything returns, a deadline error included; then every chunk is
/// accounted. With `skip_empty`, a send with no active rows is planned as
/// one item but never encoded: its EncodeResult has no chunks (the object
/// channel's .nul marker path).
Result<std::vector<EncodeResult>> EncodeSends(
    WorkerEnv* env, LayerMetrics* metrics, const linalg::ActivationRows& source,
    const std::vector<SendSpec>& sends, uint64_t max_chunk_bytes,
    bool skip_empty);

/// Issues asynchronous API calls on the worker's IPC lanes: each call starts
/// when the least-loaded lane frees up, advancing that lane by the op's
/// median latency `op_estimate_s` (the true latency is sampled when the call
/// runs). The worker itself pays only a small per-call handoff overhead.
Status DispatchOnLanes(WorkerEnv* env, double op_estimate_s,
                       std::vector<std::function<void()>> calls);

/// Billed increments for one request moving `bytes` bytes under a
/// `increment_bytes` billing granularity (>= 1 increment per request —
/// the pub-sub 64 KiB publish-chunk rule).
inline int64_t BilledIncrementChunks(uint64_t bytes,
                                     uint64_t increment_bytes) {
  const uint64_t chunks = (bytes + increment_bytes - 1) / increment_bytes;
  return static_cast<int64_t>(chunks > 0 ? chunks : 1);
}

/// Parses a framing field (a message attribute or an object-key part) as a
/// whole-string decimal int32; anything else is DataLoss.
Result<int32_t> ParseFrameInt(std::string_view text);

/// DataLoss unless `seq` names one of `total` >= 1 chunks. A header that
/// fails this could never complete its source.
Status CheckChunkIndex(int64_t seq, int64_t total);

/// ---- phase-id layout shared by workers and collectives ----
/// A batch's phase budget is `layers` layer-exchange phases followed by
/// one reserved block per collective operation. Multi-round topologies
/// (binomial tree, ring) need a DISTINCT phase id per round — channels
/// key delivery on (phase, source), and the same ordered pair carries
/// different data in different rounds — so each block reserves the
/// topology's worst-case round count. The allocator replaces the old
/// fixed kPhaseBarrierArrive/kPhaseReduce/... constants; with the
/// through-root topology (1 round per op) it reproduces that legacy
/// layout exactly: arrive=L, release=L+1, reduce=L+2, broadcast=L+3.

/// The collective operations with reserved phase blocks, in block order.
enum class CollectiveOp : int {
  kBarrierArrive = 0,
  kBarrierRelease = 1,
  kReduce = 2,
  kBroadcast = 3,
};
inline constexpr int32_t kCollectiveOpCount = 4;

/// Worst-case send rounds one collective op needs under a topology at P
/// workers (also the per-op phase reservation).
int32_t CollectiveRounds(CollectiveTopology topology, int32_t num_workers);

/// One collective op's reserved block: `rounds` consecutive phase ids
/// starting at `first`; round r runs on phase first + r.
struct PhaseBlock {
  int32_t first = 0;
  int32_t rounds = 1;
  int32_t Round(int32_t r) const {
    assert(r >= 0 && r < rounds);
    return first + r;
  }
};

/// Lays out one batch's phase ids: layer phases [base, base+layers), then
/// kCollectiveOpCount disjoint per-op blocks of `rounds_per_op` phases
/// each. Disjointness is structural — every accessor asserts its index
/// stays inside its own region (debug builds).
class PhaseAllocator {
 public:
  PhaseAllocator(int32_t base, int32_t layers, int32_t rounds_per_op)
      : base_(base), layers_(layers), rounds_per_op_(rounds_per_op) {
    assert(layers_ >= 0 && rounds_per_op_ >= 1);
  }

  /// Phase carrying the x^{k-1} exchange feeding layer k.
  int32_t LayerPhase(int32_t k) const {
    assert(k >= 0 && k < layers_);
    return base_ + k;
  }

  /// The reserved block for one collective op.
  PhaseBlock Block(CollectiveOp op) const {
    const int32_t index = static_cast<int32_t>(op);
    assert(index >= 0 && index < kCollectiveOpCount);
    return PhaseBlock{base_ + layers_ + index * rounds_per_op_,
                      rounds_per_op_};
  }

  int32_t phases_per_batch() const {
    return layers_ + kCollectiveOpCount * rounds_per_op_;
  }

 private:
  int32_t base_;
  int32_t layers_;
  int32_t rounds_per_op_;
};

}  // namespace fsd::core

#endif  // FSD_CORE_CHANNEL_H_
