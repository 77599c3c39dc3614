#include "core/worker.h"

#include <algorithm>
#include <limits>

#include "codec/varint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/collectives.h"
#include "core/launcher.h"
#include "core/partition_cache.h"
#include "core/share_distributor.h"

namespace fsd::core {
namespace {

WorkerEnv MakeEnv(cloud::FaasContext* ctx, RunState* state, int32_t worker_id,
                  WorkerMetrics* metrics) {
  WorkerEnv env;
  env.faas = ctx;
  env.cloud = state->cloud;
  env.options = &state->options;
  env.metrics = metrics;
  env.worker_id = worker_id;
  env.abort = &state->abort;
  return env;
}

/// Invokes this worker's children per the launch strategy; each invoke call
/// costs the caller one invoke-API round trip (this is what makes the
/// hierarchical tree faster than a centralized loop).
Status InvokeChildren(cloud::FaasContext* ctx, RunState* state,
                      int32_t worker_id, WorkerMetrics* metrics) {
  const double start = ctx->sim()->Now();
  const std::vector<int32_t> children =
      ChildrenToInvoke(state->options.launch, worker_id,
                       state->options.branching, state->options.num_workers);
  Rng rng(state->options.seed ^ (0x9E37ull * (worker_id + 1)));
  for (int32_t child : children) {
    const double api =
        state->cloud->latency().faas_invoke_api.Sample(&rng);
    FSD_RETURN_IF_ERROR(ctx->SleepFor(api));
    cloud::FaasService::InvokeOutcome outcome =
        state->cloud->faas().InvokeAsync(
            state->worker_function, EncodeWorkerPayload(state->run_id, child));
    FSD_RETURN_IF_ERROR(outcome.status);
    ++state->workers_launched;
  }
  metrics->launch_children_s = ctx->sim()->Now() - start;
  return Status::OK();
}

}  // namespace

/// The budget is fixed by whichever run first touches the instance;
/// concurrent runs on one shared function should agree on it (they do by
/// construction: the budget is part of the serving function-group key).
PartitionCache* InstancePartitionCache(cloud::FaasContext* ctx,
                                       const FsdOptions& options) {
  if (!options.partition_cache ||
      options.partition_cache_budget_bytes == 0) {
    return nullptr;
  }
  // Cached shares live inside the instance's memory alongside the working
  // set, so the configured budget is capped at half the instance's actual
  // memory — a 1000 MB function cannot keep 2 GiB of shares resident, and
  // the simulation must not report hit ratios a real fleet could never
  // reach. Queries sharing a function group agree on the budget by
  // construction (it is part of the serving group key) and on the memory
  // (ditto), so every run sees the same effective budget here.
  const uint64_t memory_cap =
      static_cast<uint64_t>(ctx->memory_mb()) * 1024 * 1024 / 2;
  const uint64_t budget =
      std::min(options.partition_cache_budget_bytes, memory_cap);
  if (budget == 0) return nullptr;
  auto cache = std::static_pointer_cast<PartitionCache>(ctx->instance_state());
  if (cache == nullptr) {
    cache = std::make_shared<PartitionCache>(budget);
    ctx->set_instance_state(cache);
  }
  return cache.get();
}

Status LoadShareOnMiss(cloud::FaasContext* ctx, cloud::CloudEnv* cloud,
                       const FsdOptions& options, const std::string& family,
                       int32_t partition_id, uint64_t share_bytes,
                       uint64_t rng_salt, PartitionCache* cache,
                       ShareDistributor* distributor, bool prewarm,
                       ModelLoadMetrics* metrics) {
  // λScale fast path: a warm peer may already hold this share in memory.
  // Acquire either delivers it peer-to-peer (resident + billed + counted;
  // no storage read and no re-deserialization, the share moved in
  // deserialized form) or registers this caller as the share's pending
  // storage reader — in which case the read below MUST be resolved with
  // Publish/Abandon so waiting peers stop waiting.
  bool pending_publish = false;
  if (distributor != nullptr) {
    const ShareDistributor::Source source =
        distributor->Acquire(ctx, options, family, partition_id,
                             share_bytes, metrics, prewarm);
    if (source == ShareDistributor::Source::kPeer) return Status::OK();
    pending_publish = true;
  }

  const uint64_t parts = ModelReadGetParts(share_bytes);
  cloud->billing().Record(cloud::BillingDimension::kObjectGet,
                          static_cast<double>(parts));
  metrics->model_get_parts += static_cast<int64_t>(parts);
  metrics->model_bytes_read += static_cast<int64_t>(share_bytes);
  Rng rng(options.seed ^ rng_salt ^
          (0xA11Dull * (static_cast<uint64_t>(partition_id) + 1)));
  std::vector<double> latencies;
  uint64_t remaining = share_bytes;
  for (uint64_t p = 0; p < parts; ++p) {
    const uint64_t part = std::min<uint64_t>(kModelReadPartBytes, remaining);
    remaining -= part;
    latencies.push_back(cloud->latency().object_get.Sample(&rng, part));
  }
  const double get_makespan =
      sim::ParallelMakespan(latencies, options.io_lanes);
  const double deser_s = static_cast<double>(share_bytes) /
                         cloud->compute().deserialize_bytes_per_s;
  // An interrupted read (deadline mid-transfer) must not populate the
  // cache: only a fully deserialized share is resident and reusable.
  const Status slept = ctx->SleepFor(get_makespan + deser_s);
  if (!slept.ok()) {
    if (pending_publish) {
      distributor->Abandon(family, partition_id, options.model_version);
    }
    return slept;
  }
  ++metrics->share_loads_storage;
  if (cache != nullptr) {
    const PartitionCache::InsertOutcome inserted = cache->Insert(
        family, partition_id, options.model_version, share_bytes, prewarm);
    metrics->cache_evictions += inserted.evicted;
    // An oversize reject is a future guaranteed miss, not a silent
    // success: it must show up in the hit-ratio story, and the registry
    // must never learn of a share the instance could not keep.
    if (!inserted.inserted) ++metrics->cache_oversize_rejects;
  }
  if (pending_publish) {
    distributor->Publish(ctx, options, family, partition_id);
  }
  return Status::OK();
}

namespace {

/// Models reading this worker's weight + map share from object storage
/// (multipart GETs on the IPC lanes) plus deserialization CPU. The actual
/// weight data is accessed from the shared in-memory model: storage holds
/// the bytes only notionally (phantom objects), which keeps the simulation
/// faithful on latency/billing without duplicating gigabytes.
///
/// Read-through partition cache: a warm instance that deserialized this
/// (family, partition) share at this version for an earlier query still
/// holds it in memory, so the read (and its GET billing) is skipped
/// entirely. On a miss, LoadShareOnMiss pulls the share from a warm PEER
/// holding it (λScale fast scaling) before paying the storage front door.
/// Neither layer changes the share's contents — outputs stay
/// byte-identical with caching and peer transfer on or off.
Status LoadModelShare(cloud::FaasContext* ctx, RunState* state,
                      int32_t worker_id, WorkerMetrics* metrics) {
  const double start = ctx->sim()->Now();
  const uint64_t bytes =
      state->partition->WeightShareBytes(*state->dnn, worker_id);
  const uint64_t parts = ModelReadGetParts(bytes);

  PartitionCache* cache = state->cache_family.empty()
                              ? nullptr
                              : InstancePartitionCache(ctx, state->options);
  if (cache != nullptr) {
    bool prewarmed = false;
    const PartitionCache::Lookup found =
        cache->Find(state->cache_family, worker_id,
                    state->options.model_version, &prewarmed);
    if (found == PartitionCache::Lookup::kHit) {
      ++metrics->cache_hits;
      if (prewarmed) ++metrics->prewarmed_hits;
      metrics->model_gets_saved += static_cast<int64_t>(parts);
      metrics->model_bytes_saved += static_cast<int64_t>(bytes);
      metrics->model_load_s = ctx->sim()->Now() - start;
      return Status::OK();
    }
    ++metrics->cache_misses;
    if (found == PartitionCache::Lookup::kStale) {
      ++metrics->cache_invalidations;
    }
  }

  FSD_RETURN_IF_ERROR(LoadShareOnMiss(
      ctx, state->cloud, state->options, state->cache_family, worker_id,
      bytes, /*rng_salt=*/0, cache,
      cache != nullptr ? state->share_distributor : nullptr,
      /*prewarm=*/false, metrics));
  metrics->model_load_s = ctx->sim()->Now() - start;
  return Status::OK();
}

/// One batch of the FSI loop for one worker (the body of Algorithms 1/2).
Status RunBatch(cloud::FaasContext* ctx, RunState* state,
                CommChannel* channel, int32_t worker_id, int32_t batch_index,
                WorkerMetrics* metrics) {
  const model::SparseDnn& dnn = *state->dnn;
  const part::ModelPartition& partition = *state->partition;
  const FsdOptions& options = state->options;
  const linalg::ActivationMap& full_input = *state->batches[batch_index];
  const int32_t layers = dnn.layers();
  const int32_t phase0 = batch_index * state->PhasesPerBatch();
  const int32_t batch =
      full_input.empty() ? 0 : full_input.begin()->second.dim;
  if (batch <= 0) return Status::InvalidArgument("empty input batch");

  // Worker's share of x^0: the input rows it owns. From here to the
  // reduce, a layer's rows live in flat ActivationRows: `x` and `next`
  // trade buffers every layer, and received bodies stay unmerged.
  linalg::ActivationRows x;
  for (int32_t row : partition.owned_rows[worker_id]) {
    auto it = full_input.find(row);
    if (it != full_input.end() && !it->second.empty()) {
      x.Append(row, linalg::RowView::Of(it->second));
    }
  }

  double prev_layer_macs = 0.0;
  linalg::ActivationRows next;
  std::vector<linalg::RowView> table;
  for (int32_t k = 0; k < layers; ++k) {
    if (state->abort) return Status::Unavailable("run aborted by a peer");
    const double layer_start = ctx->sim()->Now();
    const int32_t phase = phase0 + k;
    LayerMetrics& lm = metrics->Layer(phase);
    const part::LayerComm& comm = partition.layers[k];

    // --- sends (non-blocking; overlap with the local multiply) ---
    if (channel != nullptr) {
      std::vector<SendSpec> sends;
      sends.reserve(comm.send[worker_id].size());
      for (const part::SendEntry& entry : comm.send[worker_id]) {
        sends.push_back({entry.peer, &entry.rows});
      }
      WorkerEnv env = MakeEnv(ctx, state, worker_id, metrics);
      FSD_RETURN_IF_ERROR(channel->SendRows(&env, phase, x, sends));
    }

    // --- local multiply overlap: charge the expected local-only fraction
    // of this layer's compute before blocking on receives (z = W_m x_m in
    // the paper). The estimate uses the previous layer's measured MACs
    // scaled by the fraction of needed rows that are local; any remainder
    // is charged after the real kernel runs, keeping total compute time
    // exact while modelling the overlap.
    double local_rows = static_cast<double>(x.size());
    double recv_rows_expected = 0.0;
    if (channel != nullptr) {
      for (const part::SendEntry& entry : comm.recv[worker_id]) {
        recv_rows_expected += static_cast<double>(entry.rows.size());
      }
    }
    const double local_fraction =
        (local_rows + recv_rows_expected) > 0.0
            ? local_rows / (local_rows + recv_rows_expected)
            : 1.0;
    const double pre_macs = prev_layer_macs * local_fraction * 0.9;
    if (pre_macs > 0.0) {
      FSD_RETURN_IF_ERROR(ctx->Burn(2.0 * pre_macs));
    }

    // --- receive x rows from peers ---
    ReceivedRows received;
    if (channel != nullptr && !comm.recv[worker_id].empty()) {
      std::vector<int32_t> sources;
      sources.reserve(comm.recv[worker_id].size());
      for (const part::SendEntry& entry : comm.recv[worker_id]) {
        sources.push_back(entry.peer);
      }
      WorkerEnv env = MakeEnv(ctx, state, worker_id, metrics);
      FSD_ASSIGN_OR_RETURN(received,
                           channel->ReceiveRows(&env, phase, sources));
    }

    // --- full multiply + activation over owned rows (bit-identical to the
    // serial reference: one pass in CSR order over local + received). The
    // kernel reads its input rows from a table indexed by weight column.
    FSD_RETURN_IF_ERROR(BuildRowTable(x, received, dnn.weights[k].cols(),
                                      batch, &table));
    // Price the multiply BEFORE running it (the MAC count is determined by
    // the inputs alone), then run the kernel itself under that virtual
    // window via the compute-offload primitive: with compute_threads > 0
    // the spmm executes on a real pool thread while peers' events
    // dispatch, at 0 it runs inline at the window's end — either way the
    // window is the same, so virtual behaviour is byte-identical.
    const double macs = linalg::CountLayerMacs(
        dnn.weights[k], partition.owned_rows[worker_id], table);
    const double post_macs = std::max(0.0, macs - pre_macs);
    const double kernel_s = state->cloud->compute().FaasComputeSeconds(
        2.0 * post_macs, ctx->memory_mb());
    linalg::LayerForwardStats stats;
    FSD_RETURN_IF_ERROR(ctx->OffloadFor(kernel_s, [&]() {
      linalg::LayerForward(dnn.weights[k], partition.owned_rows[worker_id],
                           table, dnn.config.bias, dnn.config.relu_cap, batch,
                           &next, &stats);
    }));
    // Activation FLOPs depend on the measured output NNZ, so they are
    // charged after the join.
    FSD_RETURN_IF_ERROR(ctx->Burn(static_cast<double>(stats.output_nnz)));
    prev_layer_macs = stats.macs;

    lm.offload_calls += 1;
    lm.offload_virtual_s += kernel_s;
    lm.compute_macs += stats.macs;
    lm.compute_s += state->cloud->compute().FaasComputeSeconds(
        2.0 * stats.macs + static_cast<double>(stats.output_nnz),
        ctx->memory_mb());
    lm.out_rows += stats.rows_produced;
    lm.out_nnz += stats.output_nnz;
    lm.layer_wall_s += ctx->sim()->Now() - layer_start;
    std::swap(x, next);
  }

  // --- barrier(P_all) then reduce(P_0, x^L_m), Algorithm lines 19-20, run
  // over the configured collective topology (through-root reproduces the
  // legacy through-root traffic byte-for-byte) ---
  if (channel != nullptr && options.num_workers > 1) {
    const CollectiveTopology topology = options.collective_topology;
    const PhaseAllocator phases(
        phase0, layers, CollectiveRounds(topology, options.num_workers));
    WorkerEnv env = MakeEnv(ctx, state, worker_id, metrics);
    FSD_RETURN_IF_ERROR(
        Barrier(channel, &env, topology,
                phases.Block(CollectiveOp::kBarrierArrive),
                phases.Block(CollectiveOp::kBarrierRelease),
                options.num_workers));
    FSD_ASSIGN_OR_RETURN(
        const linalg::ActivationRows gathered,
        Reduce(channel, &env, topology, phases.Block(CollectiveOp::kReduce),
               options.num_workers, x));
    if (worker_id == 0) state->outputs[batch_index] = gathered.ToMap();
  } else if (worker_id == 0) {
    state->outputs[batch_index] = x.ToMap();
  }
  return Status::OK();
}

}  // namespace

Status BuildRowTable(const linalg::ActivationRows& local,
                     const ReceivedRows& received, int32_t cols,
                     int32_t batch, std::vector<linalg::RowView>* table) {
  for (const linalg::ActivationRows& rows : received) {
    for (size_t r = 0; r < rows.size(); ++r) {
      const int32_t row = rows.ids[r];
      if (row < 0 || row >= cols) {
        return Status::DataLoss(
            StrFormat("received row %d outside [0, %d)", row, cols));
      }
      if (rows.dims[r] != batch) {
        return Status::DataLoss(
            StrFormat("received row %d has dim %d, batch is %d", row,
                      rows.dims[r], batch));
      }
    }
  }
  table->assign(static_cast<size_t>(std::max(cols, 0)), linalg::RowView{});
  for (const linalg::ActivationRows& rows : received) rows.ViewInto(*table);
  local.ViewInto(*table);
  return Status::OK();
}

Bytes EncodeWorkerPayload(uint64_t run_id, int32_t worker_id) {
  Bytes out;
  codec::PutVarint64(&out, run_id);
  codec::PutVarint64(&out, static_cast<uint64_t>(worker_id));
  return out;
}

Result<WorkerPayload> DecodeWorkerPayload(const Bytes& payload) {
  ByteReader reader(payload);
  WorkerPayload decoded;
  FSD_ASSIGN_OR_RETURN(decoded.run_id, codec::GetVarint64(&reader));
  FSD_ASSIGN_OR_RETURN(uint64_t id, codec::GetVarint64(&reader));
  // A wider id must not be truncated into one that passes RunFsiWorker's
  // range check (2^32 + 1 would otherwise decode as worker 1).
  if (id > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return Status::DataLoss("worker id exceeds int32");
  }
  decoded.worker_id = static_cast<int32_t>(id);
  return decoded;
}

void RunFsiWorker(cloud::FaasContext* ctx, RunState* state,
                  int32_t worker_id) {
  if (worker_id < 0 || worker_id >= state->options.num_workers) {
    ctx->set_result(Status::InvalidArgument(
        StrFormat("worker id %d outside [0, %d)", worker_id,
                  state->options.num_workers)));
    ++state->workers_completed;
    state->MaybeQuiesce();
    return;
  }
  WorkerMetrics& metrics = state->metrics.workers[worker_id];
  metrics.worker_id = worker_id;
  metrics.start_time = ctx->sim()->Now();
  metrics.cold_start = ctx->cold_start();
  state->launch_complete_s =
      std::max(state->launch_complete_s, metrics.start_time);

  std::unique_ptr<CommChannel> channel =
      MakeCommChannel(state->options.variant);

  Status status = InvokeChildren(ctx, state, worker_id, &metrics);
  if (status.ok()) status = LoadModelShare(ctx, state, worker_id, &metrics);
  for (size_t b = 0; status.ok() && b < state->batches.size(); ++b) {
    status = RunBatch(ctx, state, channel.get(), worker_id,
                      static_cast<int32_t>(b), &metrics);
  }

  metrics.end_time = ctx->sim()->Now();
  state->worker_status[worker_id] = status;
  ctx->set_result(status);
  if (!status.ok()) {
    state->abort = true;
    FSD_LOG(kWarn, "worker %d failed: %s", worker_id,
            status.ToString().c_str());
  }
  if (worker_id == 0) state->done->Fire();
  ++state->workers_completed;
  state->MaybeQuiesce();
}

}  // namespace fsd::core
