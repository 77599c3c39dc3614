#include "core/serving.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"
#include "core/channel.h"
#include "core/cost_model.h"
#include "core/partition_cache.h"
#include "core/share_distributor.h"

namespace fsd::core {
namespace {

std::atomic<uint64_t> g_instance_counter{0};

/// Coalescing identity: two queries may share one worker tree only when a
/// single RunState could serve both — same model and partition objects and
/// the same execution-relevant options (everything in FsdOptions except the
/// per-run channel scope the runtime assigns itself). This is strictly
/// finer than the warm-pool function-group key and subsumes the
/// partition-cache family (which is derived from the model config, the
/// partition layout and the cache options fingerprinted here).
///
/// KEEP IN SYNC WITH FsdOptions: every field added there must be added to
/// this key (or queries differing in the new knob will silently coalesce
/// into a RunState that cannot honour both settings) — fsd_config.h points
/// back here. Exception: pure SCHEDULING metadata (slo_deadline_s,
/// priority, tenant_id) is deliberately excluded — it never reaches the
/// RunState, so queries in different SLO classes or of different tenants
/// still coalesce and keep the batching
/// amortization; the batcher tracks per-member deadlines (earliest wins,
/// late joiners tighten the flush) and shedding removes individual
/// members, so mixed-class batches stay correct.
///
/// The key must be injective over the covered fields: doubles are encoded
/// by bit pattern (no %g rounding that could merge nearby timeouts) and
/// strings are length-prefixed (a model_family containing a delimiter can
/// never alias the adjacent fields).
std::string BatchFamilyKey(const InferenceRequest& request) {
  const FsdOptions& o = request.options;
  auto bits = [](double d) {
    uint64_t b = 0;
    std::memcpy(&b, &d, sizeof(b));
    return static_cast<unsigned long long>(b);
  };
  return StrFormat(
      "%p|%p|v%d|w%d|b%d|l%d|t%d.%d|io%d|pw%016llx|os%016llx|mm%llu|"
      "gp%d|c%d|lz%d.%zu|q%d.%016llx|nm%d|kv%llu.%016llx.%d|pc%d.%llu|"
      "mf%zu:%s@%llu|m%d|wt%016llx|cm%d|s%llu|sc%zu:[%s]|ct%d|dp%016llx",
      static_cast<const void*>(request.dnn),
      static_cast<const void*>(request.partition), static_cast<int>(o.variant),
      o.num_workers, o.branching, static_cast<int>(o.launch), o.num_topics,
      o.num_buckets, o.io_lanes, bits(o.poll_wait_s),
      bits(o.object_scan_interval_s),
      static_cast<unsigned long long>(o.max_message_bytes),
      o.greedy_packing ? 1 : 0, o.compress ? 1 : 0, o.codec.max_chain_probes,
      o.codec.min_compress_size, o.quant_bits, bits(o.quant_max_rel_error),
      o.nul_markers ? 1 : 0,
      static_cast<unsigned long long>(o.kv_max_value_bytes),
      bits(o.kv_poll_wait_s), o.kv_shards, o.partition_cache ? 1 : 0,
      static_cast<unsigned long long>(o.partition_cache_budget_bytes),
      o.model_family.size(), o.model_family.c_str(),
      static_cast<unsigned long long>(o.model_version), o.worker_memory_mb,
      bits(o.worker_timeout_s), o.coordinator_memory_mb,
      static_cast<unsigned long long>(o.seed), o.channel_scope.size(),
      o.channel_scope.c_str(), static_cast<int>(o.collective_topology),
      bits(o.direct_poll_wait_s));
}

}  // namespace

ServingRuntime::ServingRuntime(cloud::CloudEnv* cloud, ServingOptions options)
    : cloud_(cloud),
      options_(std::move(options)),
      instance_id_(g_instance_counter.fetch_add(1)),
      // Without admission_control only the tenant quotas apply: no depth
      // and no wait bound, whatever the knobs hold.
      admission_(options_.admission_control ? options_.max_queue_depth : 0,
                 options_.admission_control ? options_.max_queue_wait_s : -1.0,
                 options_.shed_policy, options_.tenant_quotas),
      gate_(options_.max_concurrent_runs) {
  prewarm_ = options_.prewarm_policy ? options_.prewarm_policy
                                     : MakeRatePreWarmPolicy();
}

ServingRuntime::~ServingRuntime() = default;

ShareDistributor* ServingRuntime::EnsureShareDistributor() {
  if (share_distributor_ == nullptr) {
    ShareDistributor::Options options;
    options.scope =
        StrFormat("srv%llu", static_cast<unsigned long long>(instance_id_));
    options.topology = options_.share_multicast_topology;
    share_distributor_ = std::make_unique<ShareDistributor>(cloud_, options);
  }
  return share_distributor_.get();
}

Result<std::string> ServingRuntime::EnsureWorkerFunction(
    const FsdOptions& options) {
  // The key spells the timeout in its shortest round-trip form, so it is
  // exact: queries whose timeouts merely round to the same digits must NOT
  // share a function (the registered config's timeout is what the FaaS
  // service enforces). The partition-cache budget is part of the key too:
  // an instance's cache is created with the budget of whichever run
  // touches it first, so queries with different budgets (a budget-ablation
  // workload) must not share warm instances or their cache accounting
  // would describe the wrong budget.
  char timeout[32];  // a double's shortest form needs at most 24
  const char* timeout_end =
      std::to_chars(timeout, timeout + sizeof(timeout),
                    options.worker_timeout_s)
          .ptr;
  const std::string group =
      options_.share_functions
          ? StrFormat("w-m%d-t%.*s-b%llu", options.worker_memory_mb,
                      static_cast<int>(timeout_end - timeout), timeout,
                      static_cast<unsigned long long>(
                          options.partition_cache
                              ? options.partition_cache_budget_bytes
                              : 0))
          : StrFormat("w-q%llu", static_cast<unsigned long long>(
                                     AllocateRunId()));
  auto it = function_groups_.find(group);
  if (it != function_groups_.end()) return it->second;

  cloud::FaasFunctionConfig config;
  config.name = StrFormat("fsd-srv%llu-%s",
                          static_cast<unsigned long long>(instance_id_),
                          group.c_str());
  config.memory_mb = options.worker_memory_mb;
  config.timeout_s = options.worker_timeout_s;
  // One registered function serves every run in the group: the payload
  // names the run, so a warm instance released by one run picks up the
  // next run's invocation.
  config.handler = [this](cloud::FaasContext* ctx) {
    Result<WorkerPayload> payload = DecodeWorkerPayload(ctx->payload());
    if (!payload.ok()) {
      ctx->set_result(payload.status());
      return;
    }
    auto run = runs_.find(payload->run_id);
    if (run == runs_.end()) {
      // Not a run: the id may name a pre-warm task riding the same
      // function (its instances must land in the SAME warm pool the
      // family's runs draw from, or warming would miss them).
      if (prewarm_tasks_.count(payload->run_id) != 0) {
        RunPrewarmTask(ctx, payload->run_id);
        return;
      }
      ctx->set_result(
          Status::NotFound("worker invoked for an unknown run"));
      return;
    }
    RunFsiWorker(ctx, run->second->state.get(), payload->worker_id);
  };
  FSD_RETURN_IF_ERROR(cloud_->faas().RegisterFunction(config));
  function_groups_.emplace(group, config.name);
  return config.name;
}

Result<std::string> ServingRuntime::EnsureCoordinatorFunction(
    const FsdOptions& options) {
  const std::string group =
      options_.share_functions
          ? StrFormat("c-m%d", options.coordinator_memory_mb)
          : StrFormat("c-q%llu", static_cast<unsigned long long>(
                                     AllocateRunId()));
  auto it = function_groups_.find(group);
  if (it != function_groups_.end()) return it->second;

  cloud::FaasFunctionConfig config;
  config.name = StrFormat("fsd-srv%llu-%s",
                          static_cast<unsigned long long>(instance_id_),
                          group.c_str());
  config.memory_mb = options.coordinator_memory_mb;
  config.timeout_s = 900.0;
  config.handler = [this](cloud::FaasContext* ctx) {
    Result<WorkerPayload> payload = DecodeWorkerPayload(ctx->payload());
    if (!payload.ok()) {
      ctx->set_result(payload.status());
      return;
    }
    auto run = runs_.find(payload->run_id);
    if (run == runs_.end()) {
      ctx->set_result(
          Status::NotFound("coordinator invoked for an unknown run"));
      return;
    }
    RunCoordinator(ctx, run->second->state.get());
  };
  FSD_RETURN_IF_ERROR(cloud_->faas().RegisterFunction(config));
  function_groups_.emplace(group, config.name);
  return config.name;
}

Result<ServingRuntime::Run*> ServingRuntime::BuildRun(
    const std::vector<uint64_t>& member_ids) {
  const uint64_t run_id = AllocateRunId();
  // The merged request: the lead member's model/partition/options with the
  // concatenation of every member's batch list. Members may only reach one
  // run through a shared BatchFamilyKey, so the non-batch fields agree.
  const InferenceRequest& proto = queries_.at(member_ids[0])->request;
  InferenceRequest merged;
  merged.dnn = proto.dnn;
  merged.partition = proto.partition;
  merged.options = proto.options;
  std::vector<RunState::Member> members;
  members.reserve(member_ids.size());
  for (uint64_t id : member_ids) {
    const InferenceRequest& request = queries_.at(id)->request;
    RunState::Member member;
    member.query_id = id;
    member.batch_begin = static_cast<int32_t>(merged.batches.size());
    member.batch_count = static_cast<int32_t>(request.batches.size());
    member.cols = RequestSampleCols(request);
    members.push_back(member);
    merged.batches.insert(merged.batches.end(), request.batches.begin(),
                          request.batches.end());
  }

  // Per-run channel scope: concurrent runs must never share topics, queues
  // or buckets (phase ids restart at 0 for every run).
  merged.options.channel_scope =
      StrFormat("%sq%llu-", proto.options.channel_scope.c_str(),
                static_cast<unsigned long long>(run_id));

  FSD_ASSIGN_OR_RETURN(std::unique_ptr<RunState> state,
                       PrepareRunState(cloud_, merged, run_id));
  if (options_.peer_share_transfer && !state->cache_family.empty()) {
    state->share_distributor = EnsureShareDistributor();
  }
  // From here the run owns provisioned channel resources; release them if
  // registration fails and the run never becomes schedulable.
  Result<std::string> worker_fn = EnsureWorkerFunction(state->options);
  Result<std::string> coordinator = EnsureCoordinatorFunction(state->options);
  if (!worker_fn.ok() || !coordinator.ok()) {
    TeardownChannelResources(cloud_, state->options).ok();
    return worker_fn.ok() ? coordinator.status() : worker_fn.status();
  }
  state->worker_function = std::move(*worker_fn);
  state->members = std::move(members);

  auto run = std::make_unique<Run>();
  run->state = std::move(state);
  run->member_ids = member_ids;
  run->coordinator_function = std::move(*coordinator);
  for (uint64_t id : member_ids) {
    Query* query = queries_.at(id).get();
    query->state = run->state.get();
    query->outcome.run_id = run_id;
    query->outcome.batch_peers = static_cast<int32_t>(member_ids.size());
    if (query->aborted) run->state->abort = true;
  }
  Run* raw = run.get();
  runs_.emplace(run_id, std::move(run));
  return raw;
}

void ServingRuntime::ExecuteRun(Run* run) {
  RunState* state = run->state.get();
  const double launch_s = cloud_->sim()->Now();
  for (uint64_t id : run->member_ids) {
    Query* query = queries_.at(id).get();
    Dequeue(query);
    query->outcome.queue_wait_s = launch_s - query->outcome.arrival_s;
  }
  cloud::FaasService::InvokeOutcome invoke = cloud_->faas().InvokeAsync(
      run->coordinator_function, EncodeWorkerPayload(state->run_id, 0));
  if (invoke.status.ok()) {
    cloud_->sim()->WaitSignal(state->done.get());
    const double finish_s = cloud_->sim()->Now();
    // Collecting moves a member's slice of the outputs, so wait until
    // every launched worker (stragglers included) has exited too.
    cloud_->sim()->WaitSignal(state->quiesced.get());
    run->worker_invocations =
        static_cast<int64_t>(state->metrics.workers.size());
    for (const WorkerMetrics& w : state->metrics.workers) {
      if (w.cold_start) ++run->cold_starts;
    }
    run->ok = true;
    for (size_t i = 0; i < run->member_ids.size(); ++i) {
      Query* query = queries_.at(run->member_ids[i]).get();
      query->outcome.finish_s = finish_s;
      query->outcome.report = CollectMemberReport(
          state, i, query->outcome.arrival_s, finish_s);
      const bool member_ok = query->outcome.report.status.ok();
      query->outcome.disposition =
          member_ok ? QueryDisposition::kCompleted
          : query->aborted ? QueryDisposition::kAborted
                           : QueryDisposition::kFailed;
      query->outcome.deadline_met =
          !std::isfinite(query->outcome.deadline_s) ||
          finish_s <= query->outcome.deadline_s;
      run->ok &= member_ok;
    }
    if (run->ok) UpdateLiveStats(*run, launch_s, finish_s);
  } else {
    const double finish_s = cloud_->sim()->Now();
    for (uint64_t id : run->member_ids) {
      Query* query = queries_.at(id).get();
      query->outcome.finish_s = finish_s;
      query->outcome.report.status = invoke.status;
      query->outcome.disposition = query->aborted
                                       ? QueryDisposition::kAborted
                                       : QueryDisposition::kFailed;
    }
  }
  // Release the run's channel resources (bills the KV namespace's node
  // time) whether the run succeeded or not. Failure must not fail the run.
  const Status teardown = TeardownChannelResources(cloud_, state->options);
  if (!teardown.ok()) {
    FSD_LOG(kWarn, "channel teardown for run %llu failed: %s",
            static_cast<unsigned long long>(state->run_id),
            teardown.ToString().c_str());
  }
  for (uint64_t id : run->member_ids) queries_.at(id)->finished = true;
  run->finished = true;
  if (!run->ok && options_.stop_on_failure) AbortAll();
}

void ServingRuntime::JoinBatch(uint64_t query_id) {
  Query* query = queries_.at(query_id).get();
  const std::string family = BatchFamilyKey(query->request);
  const int32_t cols = RequestSampleCols(query->request);

  PendingBatch* batch = nullptr;
  uint64_t batch_id = 0;
  auto open = open_batch_by_family_.find(family);
  if (open != open_batch_by_family_.end()) {
    PendingBatch& candidate = pending_batches_.at(open->second);
    const bool fits =
        static_cast<int32_t>(candidate.member_ids.size()) <
            options_.max_batch_queries &&
        candidate.total_cols + cols <=
            static_cast<int64_t>(options_.max_batch_cols);
    if (fits) {
      batch = &candidate;
      batch_id = open->second;
    } else {
      // The incoming query would overflow the open batch: flush it now
      // (its window process wakes at this same virtual time) and start a
      // fresh batch for this query.
      open_batch_by_family_.erase(open);
      candidate.flush_due = true;
      candidate.flush_now->Fire();
    }
  }
  const bool fresh_batch = batch == nullptr;
  if (fresh_batch) {
    batch_id = next_batch_id_++;
    PendingBatch fresh;
    fresh.family = family;
    fresh.flush_now = cloud_->sim()->MakeSignal();
    batch = &pending_batches_.emplace(batch_id, std::move(fresh))
                 .first->second;
    open_batch_by_family_[family] = batch_id;
    // The batch's window process: launches the shared tree at flush_at
    // (the window, shortened to the tightest member's deadline slack —
    // re-read after every wake, since late joiners may tighten it), or
    // immediately when the batch fills (flush_due).
    cloud_->sim()->Spawn(
        StrFormat("serve-batch-%llu",
                  static_cast<unsigned long long>(batch_id)),
        [this, batch_id]() {
          while (true) {
            auto it = pending_batches_.find(batch_id);
            if (it == pending_batches_.end()) return;
            if (it->second.flush_due) break;
            const double wait = it->second.flush_at - cloud_->sim()->Now();
            if (wait <= 0.0) break;
            // Hold the signal by value: a tightening join swaps the
            // batch's slot for a fresh one before firing this one.
            std::shared_ptr<sim::SimSignal> wake = it->second.flush_now;
            cloud_->sim()->WaitSignal(wake.get(), wait);
          }
          FlushBatch(batch_id);
        });
  }

  batch->member_ids.push_back(query_id);
  batch->total_cols += cols;
  const bool full =
      static_cast<int32_t>(batch->member_ids.size()) >=
          options_.max_batch_queries ||
      batch->total_cols >= static_cast<int64_t>(options_.max_batch_cols);
  if (full) {
    open_batch_by_family_.erase(batch->family);
    batch->flush_due = true;
    batch->flush_now->Fire();
    return;
  }
  // Batcher stage: when must this batch launch? The first member arms the
  // window; a joiner with a tighter deadline slack pulls flush_at forward
  // and wakes the window process so it re-arms against the new time.
  const double due = cloud_->sim()->Now() + FlushTimeout(*batch);
  if (fresh_batch) {
    batch->flush_at = due;
  } else if (due < batch->flush_at) {
    batch->flush_at = due;
    std::shared_ptr<sim::SimSignal> stale = batch->flush_now;
    batch->flush_now = cloud_->sim()->MakeSignal();
    stale->Fire();
  }
}

void ServingRuntime::FlushBatch(uint64_t batch_id) {
  auto it = pending_batches_.find(batch_id);
  if (it == pending_batches_.end()) return;
  std::vector<uint64_t> member_ids = std::move(it->second.member_ids);
  auto open = open_batch_by_family_.find(it->second.family);
  if (open != open_batch_by_family_.end() && open->second == batch_id) {
    open_batch_by_family_.erase(open);
  }
  pending_batches_.erase(it);

  // Queries aborted while they waited in the window never launch.
  std::vector<uint64_t> live = DropAbortedMembers(member_ids);
  if (live.empty()) return;
  DispatchRun(std::move(live));
}

void ServingRuntime::DispatchRun(std::vector<uint64_t> member_ids) {
  if (!gate_.TryAcquire()) {
    // All slots busy: park until a finishing run hands its slot over (or
    // shedding empties the batch). Queued members stay shed-eligible.
    const uint64_t seq = next_park_seq_++;
    ParkedRun parked;
    parked.member_ids = std::move(member_ids);
    parked.wake = cloud_->sim()->MakeSignal();
    ParkedRun* entry = &parked_.emplace(seq, std::move(parked)).first->second;
    cloud_->sim()->WaitSignal(entry->wake.get());
    auto it = parked_.find(seq);
    if (it == parked_.end()) return;
    const bool granted = it->second.granted;
    member_ids = std::move(it->second.member_ids);
    parked_.erase(it);
    if (!granted) return;  // every member was shed; no slot held
    if (member_ids.empty()) {
      // Cannot happen (a grant implies live members), but never leak the
      // slot if it somehow does.
      ReleaseSlot();
      return;
    }
  }
  LaunchRun(member_ids);
  ReleaseSlot();
}

std::vector<uint64_t> ServingRuntime::DropAbortedMembers(
    const std::vector<uint64_t>& member_ids) {
  // Nothing was provisioned for a query that never launched, so it simply
  // reports the abort (the same status a pre-start coordinator abort
  // stamps).
  std::vector<uint64_t> live;
  std::vector<uint64_t> aborted;
  for (uint64_t id : member_ids) {
    (queries_.at(id)->aborted ? aborted : live).push_back(id);
  }
  if (!aborted.empty()) {
    FailQueries(aborted, Status::Unavailable("run aborted before start"),
                QueryDisposition::kAborted);
  }
  return live;
}

void ServingRuntime::LaunchRun(const std::vector<uint64_t>& member_ids) {
  // Members may have been aborted while parked on a dispatch slot (or
  // between arrival and dispatch).
  const std::vector<uint64_t> live = DropAbortedMembers(member_ids);
  if (live.empty()) return;
  Result<Run*> run = BuildRun(live);
  if (!run.ok()) {
    FailQueries(live, run.status(), QueryDisposition::kFailed);
    return;
  }
  ExecuteRun(*run);
}

void ServingRuntime::ReleaseSlot() {
  // Hand the slot to the parked run that should launch first: the queue
  // discipline compares each parked run's lead member (its first-launching
  // one); map order (park sequence) breaks ties FIFO.
  uint64_t best_seq = 0;
  const Query* best_lead = nullptr;
  for (const auto& [seq, parked] : parked_) {
    if (parked.woken || parked.member_ids.empty()) continue;
    const Query* lead = nullptr;
    for (uint64_t id : parked.member_ids) {
      const Query* member = queries_.at(id).get();
      if (lead == nullptr ||
          LaunchesBefore(options_.queue_discipline, SchedView(*member),
                         SchedView(*lead))) {
        lead = member;
      }
    }
    if (best_lead == nullptr ||
        LaunchesBefore(options_.queue_discipline, SchedView(*lead),
                       SchedView(*best_lead))) {
      best_lead = lead;
      best_seq = seq;
    }
  }
  if (best_lead == nullptr) {
    gate_.Release();
    return;
  }
  ParkedRun& next = parked_.at(best_seq);
  next.granted = true;
  next.woken = true;
  next.wake->Fire();  // the slot transfers to the woken flush process
}

void ServingRuntime::ShedQuery(uint64_t victim_id, const std::string& reason) {
  if (!queued_ids_.contains(victim_id)) return;
  Query* victim = queries_.at(victim_id).get();
  const int32_t cols = RequestSampleCols(victim->request);
  // Remove the victim from wherever it queues: an open coalescing batch...
  for (auto& [batch_id, batch] : pending_batches_) {
    auto member =
        std::find(batch.member_ids.begin(), batch.member_ids.end(), victim_id);
    if (member == batch.member_ids.end()) continue;
    batch.member_ids.erase(member);
    batch.total_cols -= cols;
    break;
  }
  // ...or a parked run (unwinding the flush process when it empties).
  for (auto& [seq, parked] : parked_) {
    auto member = std::find(parked.member_ids.begin(), parked.member_ids.end(),
                            victim_id);
    if (member == parked.member_ids.end()) continue;
    parked.member_ids.erase(member);
    if (parked.member_ids.empty() && !parked.woken) {
      parked.woken = true;
      parked.wake->Fire();  // granted stays false: unwind without a slot
    }
    break;
  }
  Dequeue(victim);
  victim->outcome.disposition = QueryDisposition::kShed;
  victim->outcome.reject_reason = reason;
  victim->outcome.finish_s = cloud_->sim()->Now();
  victim->outcome.report.status = Status::Unavailable(
      StrFormat("query shed under overload: %s", reason.c_str()));
  victim->finished = true;
}

void ServingRuntime::RejectQuery(Query* query, const std::string& reason) {
  query->outcome.disposition = QueryDisposition::kRejected;
  query->outcome.reject_reason = reason;
  query->outcome.finish_s = cloud_->sim()->Now();
  query->outcome.report.status = Status::ResourceExhausted(
      StrFormat("admission rejected the query: %s", reason.c_str()));
  query->finished = true;
}

void ServingRuntime::Dequeue(Query* query) {
  queued_ids_.erase(query->outcome.query_id);
}

void ServingRuntime::FailQueries(const std::vector<uint64_t>& ids,
                                 const Status& status,
                                 QueryDisposition disposition) {
  for (uint64_t id : ids) {
    Query* query = queries_.at(id).get();
    Dequeue(query);
    query->outcome.finish_s = cloud_->sim()->Now();
    query->outcome.report.status = status;
    query->outcome.disposition = disposition;
    query->finished = true;
  }
  if (options_.stop_on_failure) AbortAll();
}

SchedQuery ServingRuntime::SchedView(const Query& query) const {
  SchedQuery view;
  view.query_id = query.outcome.query_id;
  view.arrival_s = query.outcome.arrival_s;
  view.deadline_s = query.outcome.deadline_s;
  view.priority = query.outcome.priority;
  view.tenant = query.outcome.tenant;
  view.cols = RequestSampleCols(query.request);
  return view;
}

bool ServingRuntime::AdmissionEnabled() const {
  return options_.admission_control || !options_.tenant_quotas.empty();
}

std::vector<SchedQuery> ServingRuntime::QueuedSnapshot() const {
  std::vector<SchedQuery> queue;
  queue.reserve(queued_ids_.size());
  for (uint64_t id : queued_ids_) {
    queue.push_back(SchedView(*queries_.at(id)));
  }
  return queue;
}

double ServingRuntime::EstRunSeconds(const Query& query) {
  if (ewma_run_seeded_) return ewma_run_s_;
  // No run completed yet: the cost model's a-priori estimate, memoized per
  // family (the estimate only depends on family-keyed fields).
  const std::string family = BatchFamilyKey(query.request);
  auto it = apriori_run_s_by_family_.find(family);
  if (it != apriori_run_s_by_family_.end()) return it->second;
  const ThroughputEstimate estimate = EstimateSustainableThroughput(
      *query.request.dnn, query.request.options, cloud_->latency(),
      cloud_->compute(), /*activation_density=*/0.3,
      RequestSampleCols(query.request), options_.max_concurrent_runs,
      /*expected_occupancy=*/1.0);
  apriori_run_s_by_family_[family] = estimate.est_run_s;
  return estimate.est_run_s;
}

LoadSnapshot ServingRuntime::BuildLoadSnapshot(const Query& query) {
  LoadSnapshot load;
  load.now_s = cloud_->sim()->Now();
  load.queued = static_cast<int32_t>(queued_ids_.size());
  load.in_flight_runs = gate_.in_flight();
  load.max_concurrent_runs = options_.max_concurrent_runs;
  load.est_run_s = EstRunSeconds(query);
  load.ewma_service_rate_qps = ewma_service_rate_qps_;
  if (options_.max_concurrent_runs <= 0) {
    load.sustainable_qps = std::numeric_limits<double>::infinity();
  } else if (ewma_service_rate_qps_ > 0.0) {
    // Prefer what the fleet demonstrably sustains over the model.
    load.sustainable_qps = ewma_service_rate_qps_;
  } else if (load.est_run_s > 0.0) {
    load.sustainable_qps = static_cast<double>(options_.max_concurrent_runs) *
                           ewma_occupancy_ / load.est_run_s;
  }
  return load;
}

double ServingRuntime::FlushTimeout(const PendingBatch& batch) {
  std::vector<SchedQuery> members;
  members.reserve(batch.member_ids.size());
  bool any_deadline = false;
  for (uint64_t id : batch.member_ids) {
    members.push_back(SchedView(*queries_.at(id)));
    any_deadline |= std::isfinite(members.back().deadline_s);
  }
  // The execution estimate only matters for deadline slack; skip the cost
  // model entirely on deadline-free batches (the common case).
  const double est_exec_s =
      any_deadline ? EstRunSeconds(*queries_.at(batch.member_ids[0])) : 0.0;
  const double flush_in = BatchFlushIn(members, cloud_->sim()->Now(),
                                       options_.batch_window_s, est_exec_s);
  return flush_in < 0.0 ? 0.0 : flush_in;
}

void ServingRuntime::UpdateLiveStats(const Run& run, double launch_s,
                                     double finish_s) {
  constexpr double kAlpha = 0.3;  // favors recent runs; bursty workloads
  const double duration_s = finish_s - launch_s;
  const double members = static_cast<double>(run.member_ids.size());
  if (!ewma_run_seeded_) {
    ewma_run_s_ = duration_s;
    ewma_occupancy_ = members;
    ewma_run_seeded_ = true;
  } else {
    ewma_run_s_ += kAlpha * (duration_s - ewma_run_s_);
    ewma_occupancy_ += kAlpha * (members - ewma_occupancy_);
  }
  if (last_run_finish_s_ >= 0.0 && finish_s > last_run_finish_s_) {
    const double rate = members / (finish_s - last_run_finish_s_);
    ewma_service_rate_qps_ =
        ewma_service_rate_qps_ > 0.0
            ? ewma_service_rate_qps_ + kAlpha * (rate - ewma_service_rate_qps_)
            : rate;
  }
  last_run_finish_s_ = finish_s;
}

void ServingRuntime::ObserveArrival(uint64_t query_id) {
  if (!options_.predictive_prewarm || options_.prewarm_budget_dollars <= 0.0) {
    return;
  }
  Query* query = queries_.at(query_id).get();
  FamilyRate& rate = family_rates_[BatchFamilyKey(query->request)];
  const double now = cloud_->sim()->Now();
  constexpr double kAlpha = 0.3;  // matches the run-time EWMAs
  if (rate.last_arrival_s < 0.0) {
    rate.last_arrival_s = now;
    rate.coincident = 1;
  } else if (now <= rate.last_arrival_s) {
    // A burst peer at the same instant: no gap to turn into a rate yet;
    // the whole burst enters the next gap's sample.
    ++rate.coincident;
  } else {
    const double sample =
        static_cast<double>(rate.coincident) / (now - rate.last_arrival_s);
    rate.ewma_qps = rate.ewma_qps > 0.0
                        ? rate.ewma_qps + kAlpha * (sample - rate.ewma_qps)
                        : sample;
    rate.last_arrival_s = now;
    rate.coincident = 1;
  }
  MaybePrewarm(*query, &rate);
}

void ServingRuntime::MaybePrewarm(const Query& query, FamilyRate* rate) {
  const InferenceRequest& request = query.request;
  const std::string cache_family = DeriveCacheFamily(request);
  // Without an instance cache a pre-warmed load could not outlive its
  // invocation — there is nothing to warm.
  if (cache_family.empty() || request.options.num_workers <= 0) return;

  // Pre-warm invocations must ride the SAME function group the family's
  // runs use (the whole point is seeding THEIR warm pool), so apply the
  // same option defaulting PrepareRunState does before keying the group.
  FsdOptions options = request.options;
  if (options.worker_memory_mb <= 0) {
    options.worker_memory_mb =
        DefaultWorkerMemoryMb(request.dnn->neurons(), options.variant);
  }
  Result<std::string> worker_fn = EnsureWorkerFunction(options);
  if (!worker_fn.ok()) return;  // best-effort: never fails the query

  const cloud::PricingConfig& pricing = cloud_->billing().pricing();
  const uint64_t relay_chunk_bytes = ShareDistributor::Options().relay_chunk_bytes;
  auto instance_cost = [&](int32_t partition_id) {
    const uint64_t share_bytes =
        request.partition->WeightShareBytes(*request.dnn, partition_id);
    const ShareTransferEstimate xfer =
        EstimateShareTransfer(pricing, cloud_->latency(), cloud_->compute(),
                              share_bytes, relay_chunk_bytes);
    const bool peer = options_.peer_share_transfer && xfer.peer_cheaper;
    const double load_s = peer ? xfer.peer_load_s : xfer.storage_load_s;
    const double load_cost = peer ? xfer.peer_cost : xfer.storage_cost;
    return FaasCost(pricing, 1, load_s, options.worker_memory_mb) + load_cost;
  };

  PrewarmSnapshot snapshot;
  snapshot.now_s = cloud_->sim()->Now();
  snapshot.arrival_rate_qps = rate->ewma_qps;
  snapshot.est_run_s = EstRunSeconds(query);
  snapshot.workers_per_run = options.num_workers;
  snapshot.warm_instances = cloud_->faas().WarmCount(*worker_fn);
  snapshot.in_flight_runs = gate_.in_flight();
  snapshot.pending_prewarms = rate->pending_prewarms;
  snapshot.est_cost_per_instance = instance_cost(static_cast<int32_t>(
      rate->next_partition % static_cast<uint64_t>(options.num_workers)));
  snapshot.budget_remaining =
      options_.prewarm_budget_dollars - prewarm_budget_spent_;
  const PrewarmDecision decision = prewarm_->Decide(snapshot);

  for (int32_t i = 0; i < decision.instances; ++i) {
    const int32_t partition_id = static_cast<int32_t>(
        rate->next_partition % static_cast<uint64_t>(options.num_workers));
    // The budget is a HARD cap on committed estimates, re-checked per
    // instance (shares vary in size across partitions).
    const double est_cost = instance_cost(partition_id);
    if (prewarm_budget_spent_ + est_cost > options_.prewarm_budget_dollars) {
      break;
    }
    PrewarmTask task;
    task.options = options;
    task.rate_key = BatchFamilyKey(request);
    task.cache_family = cache_family;
    task.dnn = request.dnn;
    task.partition = request.partition;
    task.partition_id = partition_id;
    task.share_bytes =
        request.partition->WeightShareBytes(*request.dnn, partition_id);
    const uint64_t task_id = AllocateRunId();
    prewarm_tasks_.emplace(task_id, std::move(task));
    const cloud::FaasService::InvokeOutcome outcome = cloud_->faas().InvokeAsync(
        *worker_fn, EncodeWorkerPayload(task_id, partition_id));
    if (!outcome.status.ok()) {
      prewarm_tasks_.erase(task_id);
      break;
    }
    ++rate->next_partition;
    ++rate->pending_prewarms;
    ++prewarm_invocations_;
    prewarm_budget_spent_ += est_cost;
  }
}

void ServingRuntime::RunPrewarmTask(cloud::FaasContext* ctx,
                                    uint64_t task_id) {
  auto it = prewarm_tasks_.find(task_id);
  if (it == prewarm_tasks_.end()) {
    ctx->set_result(Status::NotFound("pre-warm task already consumed"));
    return;
  }
  const PrewarmTask task = std::move(it->second);
  prewarm_tasks_.erase(it);
  auto rate = family_rates_.find(task.rate_key);
  if (rate != family_rates_.end() && rate->second.pending_prewarms > 0) {
    --rate->second.pending_prewarms;
  }

  PartitionCache* cache = InstancePartitionCache(ctx, task.options);
  if (cache == nullptr ||
      cache->Contains(task.cache_family, task.partition_id,
                      task.options.model_version)) {
    // Landed on an instance that already holds the share (LIFO warm pool):
    // the invocation still warmed an instance; nothing to load.
    ctx->set_result(Status::OK());
    return;
  }

  ctx->set_result(LoadShareOnMiss(
      ctx, cloud_, task.options, task.cache_family, task.partition_id,
      task.share_bytes, /*rng_salt=*/0x50524557ull, cache,
      options_.peer_share_transfer ? EnsureShareDistributor() : nullptr,
      /*prewarm=*/true, &prewarm_loads_));
}

void ServingRuntime::ArriveQuery(uint64_t query_id) {
  Query* query = queries_.at(query_id).get();
  query->outcome.arrival_s = cloud_->sim()->Now();
  if (query->request.options.slo_deadline_s > 0.0) {
    query->outcome.deadline_s =
        query->outcome.arrival_s + query->request.options.slo_deadline_s;
  }
  ObserveArrival(query_id);
  if (AdmissionEnabled()) {
    const LoadSnapshot load = BuildLoadSnapshot(*query);
    AdmissionDecision decision =
        admission_.Decide(SchedView(*query), load, QueuedSnapshot());
    if (decision.action == AdmissionDecision::Action::kReject) {
      RejectQuery(query, decision.reason);
      return;
    }
    if (decision.action == AdmissionDecision::Action::kShedVictim) {
      ShedQuery(decision.victim_query_id, decision.reason);
    }
  }
  queued_ids_.insert(query_id);
  const bool batching = options_.batch_window_s > 0.0 &&
                        query->request.options.cross_query_batching;
  if (batching) {
    JoinBatch(query_id);
    return;
  }
  // (Queries aborted before arrival fail inside LaunchRun's filter,
  // without provisioning — same path as aborted batch members.)
  DispatchRun({query_id});
}

Result<uint64_t> ServingRuntime::Submit(const InferenceRequest& request,
                                        double arrival_s) {
  if (arrival_s < 0.0) {
    return Status::InvalidArgument("arrival time must be >= 0");
  }
  // Validate up front: a malformed request fails at Submit (not at its
  // arrival or mid-window), and run construction may then read batch
  // shapes (RequestSampleCols) before PrepareRunState re-validates.
  // Provisioning waits for the query's run: a rejected or shed query never
  // provisions anything, and a provisioning error fails the query.
  FSD_RETURN_IF_ERROR(ValidateInferenceRequest(request));
  const uint64_t query_id = AllocateRunId();

  auto query = std::make_unique<Query>();
  query->request = request;
  query->outcome.query_id = query_id;
  query->outcome.arrival_s = cloud_->sim()->Now() + arrival_s;
  query->outcome.priority = request.options.priority;
  query->outcome.tenant = request.options.tenant_id;
  query->outcome.deadline_s =
      request.options.slo_deadline_s > 0.0
          ? query->outcome.arrival_s + request.options.slo_deadline_s
          : kNoDeadline;
  queries_.emplace(query_id, std::move(query));
  submission_order_.push_back(query_id);
  cloud_->sim()->AddProcess(
      StrFormat("serve-arrive-%llu",
                static_cast<unsigned long long>(query_id)),
      [this, query_id]() { ArriveQuery(query_id); }, arrival_s);
  return query_id;
}

void ServingRuntime::AbortAll() {
  for (auto& [id, query] : queries_) {
    if (query->finished) continue;
    query->aborted = true;
    if (query->state != nullptr) query->state->abort = true;
  }
}

Result<ServingReport> ServingRuntime::Drain() {
  return Drain(options_.run_until);
}

Result<ServingReport> ServingRuntime::Drain(double run_until) {
  const std::vector<cloud::BillingLine> before =
      SnapshotLedger(cloud_->billing());
  cloud_->sim()->Run(run_until);

  ServingReport report;
  report.billing = DiffLedger(before, cloud_->billing());
  accumulated_cost_ += report.billing.total_cost;
  for (uint64_t id : submission_order_) {
    Query* query = queries_.at(id).get();
    if (!query->finished) {
      // Stopped by run_until (or a deadlock upstream): report the query as
      // incomplete but leave it live — a later Drain() may finish it.
      query->outcome.finish_s = cloud_->sim()->Now();
      query->outcome.report.status = Status::DeadlineExceeded(
          "query still in flight when Drain() stopped");
      query->outcome.disposition = QueryDisposition::kInFlight;
    }
    report.queries.push_back(query->outcome);
    FleetStats::QuerySample sample;
    sample.arrival_s = query->outcome.arrival_s;
    sample.finish_s = query->outcome.finish_s;
    sample.latency_s = query->outcome.report.latency_s;
    sample.queue_wait_s = query->outcome.queue_wait_s;
    sample.disposition = query->outcome.disposition;
    sample.priority = query->outcome.priority;
    sample.tenant = query->outcome.tenant;
    sample.deadline_s = query->outcome.deadline_s;
    report.fleet.AddQuery(sample, query->outcome.report.metrics);
  }
  for (const auto& [id, run] : runs_) {
    if (!run->finished) continue;
    report.fleet.AddRun(static_cast<int32_t>(run->member_ids.size()),
                        run->worker_invocations, run->cold_starts, run->ok);
  }
  // FleetStats spans every query submitted so far, so its dollar figures
  // must span every Drain call too (this call's ledger delta alone would
  // understate cost_per_query after a resumed drain).
  report.fleet.total_cost = accumulated_cost_;
  report.fleet.ewma_service_rate_qps = ewma_service_rate_qps_;
  report.fleet.prewarm_invocations = prewarm_invocations_;
  report.fleet.prewarm_storage_parts = prewarm_loads_.model_get_parts;
  report.fleet.prewarm_storage_bytes = prewarm_loads_.model_bytes_read;
  report.fleet.prewarm_peer_connects = prewarm_loads_.share_peer_connects;
  report.fleet.prewarm_peer_bytes = prewarm_loads_.share_peer_bytes;
  report.fleet.prewarm_relay_requests = prewarm_loads_.share_relay_requests;
  report.fleet.prewarm_relay_bytes = prewarm_loads_.share_relay_bytes;
  report.fleet.prewarm_budget_spent = prewarm_budget_spent_;
  report.fleet.Finalize();
  return report;
}

std::vector<double> PoissonArrivals(double rate_qps, int32_t count,
                                    uint64_t seed) {
  FSD_CHECK_GT(rate_qps, 0.0);
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(count > 0 ? count : 0));
  Rng rng(seed ^ 0xA221C0DEull);
  double t = 0.0;
  for (int32_t i = 0; i < count; ++i) {
    t += rng.NextExponential(1.0 / rate_qps);
    arrivals.push_back(t);
  }
  return arrivals;
}

std::vector<double> BurstArrivals(int32_t bursts, int32_t per_burst,
                                  double gap_s, double start_s) {
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(bursts) *
                   static_cast<size_t>(per_burst));
  for (int32_t b = 0; b < bursts; ++b) {
    for (int32_t q = 0; q < per_burst; ++q) {
      arrivals.push_back(start_s + gap_s * static_cast<double>(b));
    }
  }
  return arrivals;
}

}  // namespace fsd::core
