#include "core/channel.h"

#include <algorithm>
#include <charconv>
#include <deque>
#include <iterator>
#include <system_error>

#include "common/strings.h"
#include "core/direct_channel.h"
#include "core/kv_channel.h"
#include "core/object_channel.h"
#include "core/queue_channel.h"
#include "sim/simulation.h"

namespace fsd::core {
namespace {

/// Distinct row ids across `received`. Each body's ids are sorted and
/// unique, so one body needs no work. More are marked in a per-thread
/// bitmap over [0, max id], or, for ids of 2^22 and above (only a hostile
/// sender uses them), counted over their sorted concatenation.
int64_t CountDistinctIds(const ReceivedRows& received) {
  if (received.size() == 1) return static_cast<int64_t>(received[0].size());
  int32_t max_id = -1;
  for (const linalg::ActivationRows& rows : received) {
    if (!rows.empty()) max_id = std::max(max_id, rows.ids.back());
  }
  if (max_id < (1 << 22)) {
    thread_local std::vector<uint64_t> seen;
    seen.assign(static_cast<size_t>(max_id / 64 + 1), 0);
    int64_t distinct = 0;
    for (const linalg::ActivationRows& rows : received) {
      for (const int32_t id : rows.ids) {
        uint64_t& word = seen[static_cast<size_t>(id) / 64];
        const uint64_t bit = uint64_t{1} << (id % 64);
        distinct += (word & bit) == 0;
        word |= bit;
      }
    }
    return distinct;
  }
  std::vector<int32_t> ids;
  for (const linalg::ActivationRows& rows : received) {
    ids.insert(ids.end(), rows.ids.begin(), rows.ids.end());
  }
  std::sort(ids.begin(), ids.end());
  return std::unique(ids.begin(), ids.end()) - ids.begin();
}

/// Takes `chunk` into the receive's progress, completing its source once
/// all its chunks arrived. Returns false, counting a redundant skip, when
/// the source is not pending or that chunk was already taken. DataLoss when
/// the chunk's total differs from its source's first chunk: the source
/// could otherwise complete with chunks missing, or never.
Result<bool> Accept(const ReceivedChunk& chunk, PendingSources* pending,
                    LayerMetrics* metrics) {
  auto it = pending->find(chunk.source);
  if (it == pending->end()) {
    ++metrics->redundant_skipped;  // a completed source
    return false;
  }
  SourceProgress& progress = it->second;
  if (progress.expected != -1 && progress.expected != chunk.total) {
    return Status::DataLoss(
        StrFormat("source %d sent chunk %d of %d after announcing %d chunks",
                  chunk.source, chunk.seq, chunk.total, progress.expected));
  }
  if (!progress.taken.insert(chunk.seq).second) {
    ++metrics->redundant_skipped;  // a redelivery
    return false;
  }
  progress.expected = chunk.total;
  if (std::ssize(progress.taken) == progress.expected) pending->erase(it);
  return true;
}

/// One received chunk and what its detached decode writes. Only that job
/// touches the slot until the join.
struct DecodeSlot {
  ReceivedChunk chunk;
  linalg::ActivationRows rows;
  Status status;
};

}  // namespace

int32_t CollectiveRounds(CollectiveTopology topology, int32_t num_workers) {
  switch (topology) {
    case CollectiveTopology::kThroughRoot:
      return 1;
    case CollectiveTopology::kBinomialTree: {
      // ceil(log2 P): the round count of a binomial gather/scatter.
      int32_t rounds = 0;
      while ((1 << rounds) < num_workers) ++rounds;
      return rounds > 0 ? rounds : 1;
    }
    case CollectiveTopology::kRing:
      return num_workers > 1 ? num_workers - 1 : 1;
  }
  return 1;
}

Result<std::vector<EncodeResult>> EncodeSends(
    WorkerEnv* env, LayerMetrics* metrics, const linalg::ActivationRows& source,
    const std::vector<SendSpec>& sends, uint64_t max_chunk_bytes,
    bool skip_empty) {
  metrics->send_targets += static_cast<int64_t>(sends.size());
  // Plan first: chunk counts and exact raw bytes are input-determined
  // (PlanRows replays the NNZ chunking and the wire layout arithmetic), so
  // the CPU charge is computable before a single byte is encoded. A skipped
  // empty send still counts as one item (its marker).
  uint64_t serialize_bytes = 0;
  size_t items = 0;
  std::vector<bool> skip(sends.size());
  std::vector<std::vector<RowRef>> rows(sends.size());
  for (size_t s = 0; s < sends.size(); ++s) {
    metrics->send_rows_mapped += static_cast<int64_t>(sends[s].rows->size());
    rows[s] = CollectRows(source, *sends[s].rows);
    const EncodePlan plan = PlanRows(rows[s], max_chunk_bytes);
    metrics->send_rows_active += plan.active_rows;
    items += plan.num_chunks;
    skip[s] = skip_empty && plan.active_rows == 0;
    if (!skip[s]) serialize_bytes += plan.raw_bytes;
  }

  const FsdOptions& options = *env->options;
  double per_byte_s = 1.0 / env->cloud->compute().serialize_bytes_per_s;
  if (options.quant_bits != 0) {
    // Quantized wire mode: one extra pass over the raw payload to scan the
    // scale and pack symbols — the CPU side of the break-even trade.
    per_byte_s += 1.0 / env->cloud->compute().quant_bytes_per_s;
  }
  const double serialize_s = static_cast<double>(serialize_bytes) * per_byte_s;
  std::vector<double> lane_costs;  // rough per-item split for makespan
  if (items > 0) {
    lane_costs.assign(items, serialize_s / static_cast<double>(items));
  }
  const double makespan = sim::ParallelMakespan(lane_costs, options.io_lanes);
  metrics->serialize_s += makespan;
  metrics->offload_calls += 1;
  metrics->offload_virtual_s += makespan;

  // Each send's encode (varint packing + LZ/quant passes) is its own
  // detached job under the charged window, so one phase's encodes spread
  // over the pool; all post-encode work (chunk accounting, framing,
  // dispatch) follows the join. The group is declared last so that, on any
  // return, it joins before the slots its jobs write die.
  std::vector<EncodeResult> encoded(sends.size());
  const WireCodec codec = WireCodecFromOptions(options);
  sim::Simulation* sim = env->cloud->sim();
  sim::OffloadGroup encodes(sim);
  for (size_t s = 0; s < sends.size(); ++s) {
    if (skip[s]) continue;
    sim->StartDetached(&encodes, [&, s]() {
      encoded[s] = EncodeRows(rows[s], max_chunk_bytes, codec);
    });
  }
  const Status slept = env->faas->SleepFor(makespan);
  sim->JoinDetached(&encodes);
  FSD_RETURN_IF_ERROR(slept);
  for (const EncodeResult& result : encoded) {
    for (const RowChunk& chunk : result.chunks) {
      metrics->send_chunks += 1;
      metrics->send_raw_bytes += static_cast<int64_t>(chunk.raw_bytes);
      metrics->send_wire_bytes += static_cast<int64_t>(chunk.wire.size());
      if (chunk.quant_bits != 0) {
        metrics->quant_chunks += 1;
        metrics->quant_values += chunk.quant_values;
        metrics->quant_err_max =
            std::max(metrics->quant_err_max, chunk.quant_err_max);
      }
    }
  }
  return encoded;
}

Status DispatchOnLanes(WorkerEnv* env, double op_estimate_s,
                       std::vector<std::function<void()>> calls) {
  std::vector<double> lane_free(
      static_cast<size_t>(std::max(env->options->io_lanes, 1)), 0.0);
  for (std::function<void()>& call : calls) {
    auto lane = std::min_element(lane_free.begin(), lane_free.end());
    env->cloud->sim()->ScheduleCallback(*lane, std::move(call));
    *lane += op_estimate_s;
  }
  // The worker only hands each call to its IPC pool; the API round trips
  // ride the lanes above.
  return env->faas->SleepFor(0.0002 * static_cast<double>(calls.size()));
}

Result<int32_t> ParseFrameInt(std::string_view text) {
  int32_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || error != std::errc() ||
      end != text.data() + text.size()) {
    return Status::DataLoss(
        StrFormat("bad channel frame field '%.*s'",
                  static_cast<int>(text.size()), text.data()));
  }
  return value;
}

Status CheckChunkIndex(int64_t seq, int64_t total) {
  if (total < 1 || seq < 0 || seq >= total) {
    return Status::DataLoss(
        StrFormat("chunk %lld of %lld can never complete its source",
                  static_cast<long long>(seq), static_cast<long long>(total)));
  }
  return Status::OK();
}

Result<ReceivedRows> CommChannel::ReceiveRows(
    WorkerEnv* env, int32_t phase, const std::vector<int32_t>& sources) {
  if (sources.empty()) return ReceivedRows{};
  // Resolved past the early return: it grows the worker's layer list.
  LayerMetrics& metrics = env->metrics->Layer(phase);
  sim::Simulation* sim = env->cloud->sim();
  const double start = sim->Now();
  PendingSources pending;
  for (const int32_t source : sources) pending[source];
  // Arrival order. A deque: appending never moves a slot a job still
  // writes into.
  std::deque<DecodeSlot> slots;
  // Declared after the slots, so on any return it joins the decodes before
  // the slots die.
  sim::OffloadGroup decodes(sim);

  for (bool first = true; !pending.empty(); first = false) {
    FSD_RETURN_IF_ERROR(env->CheckAbort());
    FSD_RETURN_IF_ERROR(env->faas->CheckDeadline());
    FSD_ASSIGN_OR_RETURN(PollResult poll,
                         PollStep(env, phase, pending, first));
    bool accepted = false;
    uint64_t accepted_bytes = 0;
    for (ReceivedChunk& chunk : poll.chunks) {
      FSD_ASSIGN_OR_RETURN(const bool fresh,
                           Accept(chunk, &pending, &metrics));
      if (!fresh) continue;
      accepted = true;
      accepted_bytes += chunk.size();
      metrics.recv_wire_bytes += static_cast<int64_t>(chunk.size());
      // Each decode runs detached, on a pool thread while this process
      // polls on (inline when the sim has no pool); its rows are first read
      // after the join. The body stays in its slot until the receive
      // returns: freeing it on the pool thread, which did not allocate it,
      // raised peak RSS through glibc's per-thread caches.
      DecodeSlot& slot = slots.emplace_back(std::move(chunk));
      sim->StartDetached(&decodes, [&slot]() {
        slot.status = DecodeRows(slot.chunk.wire(), &slot.rows);
      });
    }
    // The round's one window: its service time plus the accepted bodies'
    // deserialization. Redundant chunks are never charged.
    if (accepted || poll.service_s > 0.0) {
      const double deser_s = static_cast<double>(accepted_bytes) /
                             env->cloud->compute().deserialize_bytes_per_s;
      const double window_s = poll.service_s + deser_s;
      metrics.deserialize_s += deser_s;
      if (accepted) {
        metrics.offload_calls += 1;
        metrics.offload_virtual_s += window_s;
      }
      FSD_RETURN_IF_ERROR(env->faas->SleepFor(window_s));
    }
    for (const int32_t source : poll.completed) {
      if (pending.erase(source) > 0) ++metrics.nul_skipped;
    }
  }

  // Every source is complete: join the decodes and hand over their rows,
  // one ActivationRows per body in arrival order. A decode error surfaces
  // only here, for every pool size: the first in arrival order.
  metrics.recv_wait_s += sim->Now() - start;
  sim->JoinDetached(&decodes);
  for (const DecodeSlot& slot : slots) FSD_RETURN_IF_ERROR(slot.status);
  ReceivedRows received;
  received.reserve(slots.size());
  for (DecodeSlot& slot : slots) received.push_back(std::move(slot.rows));
  metrics.recv_rows += CountDistinctIds(received);
  return received;
}

std::unique_ptr<CommChannel> MakeCommChannel(Variant variant) {
  switch (variant) {
    case Variant::kQueue:
      return std::make_unique<QueueChannel>();
    case Variant::kObject:
      return std::make_unique<ObjectChannel>();
    case Variant::kKv:
      return std::make_unique<KvChannel>();
    case Variant::kDirect:
      return std::make_unique<DirectChannel>();
    case Variant::kSerial:
      return nullptr;
  }
  return nullptr;
}

Status ProvisionChannelResources(cloud::CloudEnv* cloud,
                                 const FsdOptions& options) {
  switch (options.variant) {
    case Variant::kQueue:
      return QueueChannel::Provision(cloud, options);
    case Variant::kObject:
      return ObjectChannel::Provision(cloud, options);
    case Variant::kKv:
      return KvChannel::Provision(cloud, options);
    case Variant::kDirect:
      return DirectChannel::Provision(cloud, options);
    case Variant::kSerial:
      return Status::OK();
  }
  return Status::OK();
}

Status TeardownChannelResources(cloud::CloudEnv* cloud,
                                const FsdOptions& options) {
  if (options.variant == Variant::kKv) {
    return KvChannel::Teardown(cloud, options);
  }
  if (options.variant == Variant::kDirect) {
    return DirectChannel::Teardown(cloud, options);
  }
  return Status::OK();
}

}  // namespace fsd::core
