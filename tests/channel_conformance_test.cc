// Backend x topology parameterized conformance suite for the CommChannel
// contract: one set of behavioural guarantees, verified against every
// production backend (queue, object, KV, direct) under every collective
// topology (through-root, binomial tree, ring). Anything a worker or
// collective may rely on — delivery exactness, phase separation, chunk
// reassembly, empty-send markers, compression/lane configuration
// independence, collective semantics (byte-identical across topologies),
// abort draining (including mid-tree), relay fallback on punch failure,
// and channel_scope isolation — is pinned here, so a new backend or
// topology is done when this suite passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <vector>

#include "cloud/cloud.h"
#include "common/strings.h"
#include "core/channel.h"
#include "core/collectives.h"
#include "core/direct_channel.h"
#include "core/kv_channel.h"

namespace fsd::core {
namespace {

/// Rows `ids` (ascending), each holding entries 0..nnz-1 of width `dim`.
linalg::ActivationRows MakeRows(std::vector<int32_t> ids, int32_t dim,
                                int32_t nnz, float salt = 0.0f) {
  linalg::ActivationRows out;
  for (int32_t id : ids) {
    std::vector<int32_t> idx;
    std::vector<float> val;
    for (int32_t j = 0; j < nnz; ++j) {
      idx.push_back(j);
      val.push_back(static_cast<float>(id) + 0.25f * j + salt);
    }
    out.Append(id, dim, idx.data(), val.data(), idx.size());
  }
  return out;
}

/// One simulated worker of a conformance scenario.
struct WorkerSpec {
  std::function<void(WorkerEnv*, CommChannel*)> body;
  /// Channel configuration (defaults to the fixture's options_). Distinct
  /// pointers model concurrent runs with their own channel_scope.
  const FsdOptions* options = nullptr;
  /// Worker id within its options' run (defaults to the spec index).
  int32_t worker_id = -1;
};

class ChannelConformanceTest
    : public ::testing::TestWithParam<std::tuple<Variant, CollectiveTopology>> {
 protected:
  ChannelConformanceTest() : cloud_(&sim_) {}

  Variant Backend() const { return std::get<0>(GetParam()); }
  CollectiveTopology Topology() const { return std::get<1>(GetParam()); }

  void SetUp() override {
    options_.variant = Backend();
    options_.collective_topology = Topology();
    options_.num_workers = 4;
    options_.poll_wait_s = 2.0;
    options_.kv_poll_wait_s = 0.5;
    options_.direct_poll_wait_s = 0.5;
    options_.object_scan_interval_s = 0.01;
  }

  /// PhaseBlock for a collective op at this fixture's topology: the phase
  /// layout a worker tree would reserve for `workers` participants.
  PhaseBlock Block(CollectiveOp op, int32_t workers) const {
    return PhaseAllocator(0, 0, CollectiveRounds(Topology(), workers))
        .Block(op);
  }

  /// Runs each spec's body inside its own FaaS handler with a fresh
  /// channel instance bound to the spec's options. May be called several
  /// times per test (each call provisions and drives to quiescence).
  void RunWorkers(std::vector<WorkerSpec> specs) {
    const int epoch = run_counter_++;
    std::vector<const FsdOptions*> provisioned;
    for (size_t i = 0; i < specs.size(); ++i) {
      const FsdOptions* options =
          specs[i].options != nullptr ? specs[i].options : &options_;
      if (std::find(provisioned.begin(), provisioned.end(), options) ==
          provisioned.end()) {
        FSD_CHECK_OK(ProvisionChannelResources(active_cloud_, *options));
        provisioned.push_back(options);
      }
      metrics_.emplace_back(std::make_unique<WorkerMetrics>());
      WorkerMetrics* metrics = metrics_.back().get();
      const int32_t worker_id = specs[i].worker_id >= 0
                                    ? specs[i].worker_id
                                    : static_cast<int32_t>(i);
      auto body = specs[i].body;
      cloud::FaasFunctionConfig fn;
      fn.name = StrFormat("e%d-w%zu", epoch, i);
      fn.memory_mb = 2048;
      fn.timeout_s = 600.0;
      fn.handler = [this, body, options, metrics,
                    worker_id](cloud::FaasContext* ctx) {
        std::unique_ptr<CommChannel> channel =
            MakeCommChannel(options->variant);
        WorkerEnv env;
        env.faas = ctx;
        env.cloud = active_cloud_;
        env.options = options;
        env.metrics = metrics;
        env.worker_id = worker_id;
        env.abort = &abort_;
        body(&env, channel.get());
        ctx->set_result(Status::OK());
      };
      FSD_CHECK_OK(active_cloud_->faas().RegisterFunction(fn));
    }
    sim_.AddProcess(StrFormat("kickoff-%d", epoch),
                    [this, epoch, n = specs.size()]() {
                      for (size_t i = 0; i < n; ++i) {
                        active_cloud_->faas().InvokeAsync(
                            StrFormat("e%d-w%zu", epoch, i), {});
                      }
                    });
    sim_.Run();
  }

  sim::Simulation sim_;
  cloud::CloudEnv cloud_;
  /// The environment RunWorkers drives: tests needing a non-default cloud
  /// configuration (e.g. a 100% punch-failure rate) repoint this before
  /// their first RunWorkers call.
  cloud::CloudEnv* active_cloud_ = &cloud_;
  FsdOptions options_;
  bool abort_ = false;
  int run_counter_ = 0;
  std::vector<std::unique_ptr<WorkerMetrics>> metrics_;
};

std::string ComboName(
    const ::testing::TestParamInfo<std::tuple<Variant, CollectiveTopology>>&
        info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case Variant::kQueue:
      name = "Queue";
      break;
    case Variant::kObject:
      name = "Object";
      break;
    case Variant::kKv:
      name = "Kv";
      break;
    case Variant::kDirect:
      name = "Direct";
      break;
    default:
      name = "Unknown";
      break;
  }
  switch (std::get<1>(info.param)) {
    case CollectiveTopology::kThroughRoot:
      return name + "ThroughRoot";
    case CollectiveTopology::kBinomialTree:
      return name + "Binomial";
    case CollectiveTopology::kRing:
      return name + "Ring";
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, ChannelConformanceTest,
    ::testing::Combine(::testing::Values(Variant::kQueue, Variant::kObject,
                                         Variant::kKv, Variant::kDirect),
                       ::testing::Values(CollectiveTopology::kThroughRoot,
                                         CollectiveTopology::kBinomialTree,
                                         CollectiveTopology::kRing)),
    ComboName);

TEST_P(ChannelConformanceTest, RoundtripDeliversExactRows) {
  const linalg::ActivationRows rows = MakeRows({3, 7, 11}, 16, 4);
  static const std::vector<int32_t> ids = {3, 7, 11};
  linalg::ActivationRows received;
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received = std::move(*got);
      }},
  });
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received, rows);
}

TEST_P(ChannelConformanceTest, PhasesDeliverInOrderWithoutCrossTalk) {
  // All three phases are in flight before the receiver starts phase 0: a
  // conforming backend neither loses nor cross-delivers early phases.
  constexpr int kPhases = 3;
  std::vector<linalg::ActivationRows> sent;
  for (int p = 0; p < kPhases; ++p) {
    sent.push_back(MakeRows({p + 1, p + 10}, 8, 3,
                            /*salt=*/0.5f * static_cast<float>(p)));
  }
  static const std::vector<std::vector<int32_t>> ids = {
      {1, 10}, {2, 11}, {3, 12}};
  std::vector<linalg::ActivationRows> received(kPhases);
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        for (int p = 0; p < kPhases; ++p) {
          std::vector<SendSpec> sends{{1, &ids[p]}};
          ASSERT_TRUE(channel->SendRows(env, p, sent[p], sends).ok());
        }
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        ASSERT_TRUE(env->faas->SleepFor(1.0).ok());  // let all phases land
        for (int p = 0; p < kPhases; ++p) {
          auto got = Recv(channel, env, p, {0});
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          received[p] = std::move(*got);
        }
      }},
  });
  for (int p = 0; p < kPhases; ++p) {
    EXPECT_EQ(received[p], sent[p]) << "phase " << p;
  }
}

TEST_P(ChannelConformanceTest, ChunkedPayloadsReassemble) {
  // Force chunking on the size-capped backends; the object channel ships
  // one unbounded object either way. Values must reassemble exactly.
  options_.max_message_bytes = 512;
  options_.kv_max_value_bytes = 512;
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < 40; ++i) ids.push_back(i);
  const linalg::ActivationRows rows = MakeRows(ids, 64, 48);
  linalg::ActivationRows received;
  int64_t send_chunks = 0;
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
        send_chunks = env->metrics->Layer(0).send_chunks;
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received = std::move(*got);
      }},
  });
  if (Backend() != Variant::kObject) {
    EXPECT_GT(send_chunks, 5);
  }
  ASSERT_EQ(received.size(), ids.size());
  EXPECT_EQ(received, rows);
}

TEST_P(ChannelConformanceTest, EmptySendCompletesReceiver) {
  // A source with nothing to transmit must still complete the receiver
  // (marker message / .nul object / header-only value).
  const linalg::ActivationRows empty;
  static const std::vector<int32_t> ids = {5, 6};
  bool receiver_done = false;
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, empty, sends).ok());
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_TRUE(got->empty());
        receiver_done = true;
      }},
  });
  EXPECT_TRUE(receiver_done);
}

TEST_P(ChannelConformanceTest, FanOutDeliversDisjointSubsets) {
  // One SendRows call with three targets: each receiver sees exactly its
  // subset, nothing more.
  const linalg::ActivationRows rows = MakeRows({1, 2, 3}, 8, 4);
  static const std::vector<std::vector<int32_t>> subsets = {{1}, {2}, {3}};
  std::vector<linalg::ActivationRows> received(3);
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{
            {1, &subsets[0]}, {2, &subsets[1]}, {3, &subsets[2]}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        received[0] = std::move(*got);
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        received[1] = std::move(*got);
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        received[2] = std::move(*got);
      }},
  });
  for (int n = 0; n < 3; ++n) {
    ASSERT_EQ(received[n].size(), 1u) << "target " << n + 1;
    EXPECT_EQ(received[n], MakeRows({n + 1}, 8, 4));
  }
}

TEST_P(ChannelConformanceTest, CompressionOnAndOffBothRoundtrip) {
  static const std::vector<int32_t> ids = {4, 9, 20};
  const linalg::ActivationRows rows = MakeRows(ids, 32, 24);
  for (bool compress : {true, false}) {
    FsdOptions options = options_;
    options.compress = compress;
    options.channel_scope = compress ? "cmp-" : "raw-";
    linalg::ActivationRows received;
    RunWorkers({
        {[&](WorkerEnv* env, CommChannel* channel) {
          std::vector<SendSpec> sends{{1, &ids}};
          ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
        }, &options},
        {[&](WorkerEnv* env, CommChannel* channel) {
          auto got = Recv(channel, env, 0, {0});
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          received = std::move(*got);
        }, &options},
    });
    ASSERT_EQ(received.size(), ids.size()) << "compress=" << compress;
    EXPECT_EQ(received, rows) << "compress=" << compress;
  }
}

TEST_P(ChannelConformanceTest, LaneCountDoesNotChangeValues) {
  static const std::vector<int32_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  const linalg::ActivationRows rows = MakeRows(ids, 64, 32);
  std::vector<linalg::ActivationRows> received(2);
  int lane_run = 0;
  for (int32_t lanes : {1, 8}) {
    FsdOptions options = options_;
    options.io_lanes = lanes;
    options.channel_scope = StrFormat("lanes%d-", lanes);
    RunWorkers({
        {[&, lanes](WorkerEnv* env, CommChannel* channel) {
          std::vector<SendSpec> sends{{1, &ids}};
          ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
        }, &options},
        {[&, idx = lane_run](WorkerEnv* env, CommChannel* channel) {
          auto got = Recv(channel, env, 0, {0});
          ASSERT_TRUE(got.ok());
          received[idx] = std::move(*got);
        }, &options},
    });
    ++lane_run;
  }
  EXPECT_EQ(received[0], received[1]);
  EXPECT_EQ(received[0], rows);
}

TEST_P(ChannelConformanceTest, BarrierReleasesNobodyBeforeLastArrival) {
  constexpr int32_t kWorkers = 4;
  std::vector<double> arrived(kWorkers, 0.0);
  std::vector<double> released(kWorkers, 0.0);
  std::vector<WorkerSpec> specs;
  for (int32_t w = 0; w < kWorkers; ++w) {
    specs.push_back({[&, w](WorkerEnv* env, CommChannel* channel) {
      // Staggered arrivals: the barrier must hold everyone until the
      // slowest worker shows up.
      ASSERT_TRUE(env->faas->SleepFor(0.3 * w).ok());
      arrived[w] = env->cloud->sim()->Now();
      ASSERT_TRUE(Barrier(channel, env, Topology(),
                          Block(CollectiveOp::kBarrierArrive, kWorkers),
                          Block(CollectiveOp::kBarrierRelease, kWorkers),
                          kWorkers)
                      .ok());
      released[w] = env->cloud->sim()->Now();
    }});
  }
  RunWorkers(std::move(specs));
  const double last_arrival =
      *std::max_element(arrived.begin(), arrived.end());
  for (int32_t w = 0; w < kWorkers; ++w) {
    EXPECT_GE(released[w], last_arrival) << "worker " << w;
  }
}

TEST_P(ChannelConformanceTest, ReduceGathersEveryWorkersRows) {
  constexpr int32_t kWorkers = 4;
  linalg::ActivationRows gathered;
  std::vector<WorkerSpec> specs;
  for (int32_t w = 0; w < kWorkers; ++w) {
    specs.push_back({[&, w](WorkerEnv* env, CommChannel* channel) {
      // Disjoint row ownership, as the row-wise decomposition guarantees.
      const linalg::ActivationRows mine = MakeRows({w}, 8, 3);
      auto got = Reduce(channel, env, Topology(),
                        Block(CollectiveOp::kReduce, kWorkers), kWorkers, mine);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      if (w == 0) {
        gathered = std::move(*got);
      } else {
        EXPECT_TRUE(got->empty());
      }
    }});
  }
  RunWorkers(std::move(specs));
  ASSERT_EQ(gathered.size(), static_cast<size_t>(kWorkers));
  EXPECT_EQ(gathered, MakeRows({0, 1, 2, 3}, 8, 3));
}

TEST_P(ChannelConformanceTest, BroadcastDeliversRootRowsToAll) {
  constexpr int32_t kWorkers = 4;
  const linalg::ActivationRows root_rows = MakeRows({2, 5}, 8, 4);
  std::vector<linalg::ActivationRows> got_rows(kWorkers);
  std::vector<WorkerSpec> specs;
  for (int32_t w = 0; w < kWorkers; ++w) {
    specs.push_back({[&, w](WorkerEnv* env, CommChannel* channel) {
      const linalg::ActivationRows mine =
          w == 0 ? root_rows : linalg::ActivationRows{};
      auto got = Broadcast(channel, env, Topology(),
                           Block(CollectiveOp::kBroadcast, kWorkers), kWorkers,
                           mine);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      got_rows[w] = std::move(*got);
    }});
  }
  RunWorkers(std::move(specs));
  for (int32_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(got_rows[w], root_rows) << "worker " << w;
  }
}

// The services bill every chunk a worker sends, so a worker's billed
// counters never read 0 while it sent a chunk: the cost model reads them
// directly. Each byte-metered backend bills at least the chunk wire plus
// a non-empty frame per chunk (queue attributes, KV and relay value
// headers); object storage bills one PUT per chunk.
TEST_P(ChannelConformanceTest, EverySentChunkIsBilled) {
  options_.max_message_bytes = 512;
  options_.kv_max_value_bytes = 512;
  constexpr int32_t kWorkers = 4;
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < 24; ++i) ids.push_back(i);
  std::vector<WorkerSpec> specs;
  for (int32_t w = 0; w < kWorkers; ++w) {
    specs.push_back({[&, w](WorkerEnv* env, CommChannel* channel) {
      const linalg::ActivationRows rows =
          MakeRows(ids, 64, 32, /*salt=*/static_cast<float>(w));
      std::vector<SendSpec> sends{{(w + 1) % kWorkers, &ids}};
      ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
      ASSERT_TRUE(Recv(channel, env, 0, {(w + kWorkers - 1) % kWorkers}).ok());
      const linalg::ActivationRows mine = MakeRows({w}, 8, 3);
      ASSERT_TRUE(Reduce(channel, env, Topology(),
                         Block(CollectiveOp::kReduce, kWorkers), kWorkers,
                         mine)
                      .ok());
      ASSERT_TRUE(Broadcast(channel, env, Topology(),
                            Block(CollectiveOp::kBroadcast, kWorkers),
                            kWorkers, w == 0 ? mine : linalg::ActivationRows{})
                      .ok());
    }});
  }
  RunWorkers(std::move(specs));
  ASSERT_EQ(metrics_.size(), static_cast<size_t>(kWorkers));
  for (size_t w = 0; w < metrics_.size(); ++w) {
    metrics_[w]->Finalize();
    const LayerMetrics& t = metrics_[w]->totals;
    EXPECT_GT(t.send_chunks, 0) << "worker " << w;
    int64_t billed = 0;
    switch (Backend()) {
      case Variant::kQueue:
      case Variant::kKv:
        billed = t.send_billed_bytes;
        break;
      case Variant::kDirect:
        billed = t.direct_billed_bytes + t.send_billed_bytes;
        break;
      default:
        EXPECT_GE(t.puts_dat, t.send_chunks) << "worker " << w;
        continue;
    }
    EXPECT_GE(billed, t.send_wire_bytes + t.send_chunks) << "worker " << w;
  }
}

TEST_P(ChannelConformanceTest, AbortUnblocksPendingReceive) {
  // Worker 1 waits for a source that never sends; the abort flag (set when
  // a peer fails) must drain the receive promptly instead of letting it
  // poll until the runtime cap.
  Status receive_status = Status::OK();
  double unblocked_at = 0.0;
  sim_.AddProcess("abort-setter", [this]() {
    sim_.Hold(0.5);
    abort_ = true;
  });
  RunWorkers({
      {[&](WorkerEnv*, CommChannel*) { /* never sends */ }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        receive_status = got.status();
        unblocked_at = env->cloud->sim()->Now();
      }},
  });
  EXPECT_FALSE(receive_status.ok());
  EXPECT_EQ(receive_status.code(), StatusCode::kUnavailable)
      << receive_status.ToString();
  // Bounded by one poll/pop wait after the abort, with scheduling slack.
  EXPECT_LT(unblocked_at, 0.5 + 2.0 * options_.poll_wait_s + 1.0);
}

TEST_P(ChannelConformanceTest, ChannelScopeIsolatesConcurrentRuns) {
  // Two runs with identical (phase, source -> target) traffic but
  // different scopes: each receiver must see exactly its own run's rows.
  FsdOptions run_a = options_;
  run_a.channel_scope = "runA-";
  FsdOptions run_b = options_;
  run_b.channel_scope = "runB-";
  static const std::vector<int32_t> ids = {7};
  const linalg::ActivationRows rows_a = MakeRows({7}, 8, 3, /*salt=*/0.0f);
  const linalg::ActivationRows rows_b = MakeRows({7}, 8, 3, /*salt=*/100.0f);
  linalg::ActivationRows got_a, got_b;
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows_a, sends).ok());
      }, &run_a, /*worker_id=*/0},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        got_a = std::move(*got);
      }, &run_a, /*worker_id=*/1},
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows_b, sends).ok());
      }, &run_b, /*worker_id=*/0},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        got_b = std::move(*got);
      }, &run_b, /*worker_id=*/1},
  });
  ASSERT_EQ(got_a.size(), 1u);
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_EQ(got_a, rows_a);
  EXPECT_EQ(got_b, rows_b);
  EXPECT_NE(got_a, got_b);
}

TEST_P(ChannelConformanceTest, DirectPunchFailuresFallBackToRelay) {
  // With every hole punch failing (all-symmetric-NAT fleet), the direct
  // channel must deliver the same rows through its KV relay: exactness is
  // preserved, the fallback counters fire, and no message rides a link.
  if (Backend() != Variant::kDirect) {
    GTEST_SKIP() << "punch fallback is direct-channel behaviour";
  }
  cloud::CloudConfig config;
  config.latency.p2p_punch_failure_rate = 1.0;
  cloud::CloudEnv relay_cloud(&sim_, config);
  active_cloud_ = &relay_cloud;
  static const std::vector<int32_t> ids = {3, 7};
  const linalg::ActivationRows rows = MakeRows(ids, 16, 4);
  linalg::ActivationRows received;
  int64_t punch_failures = 0;
  int64_t relay_msgs = 0;
  int64_t direct_msgs = 0;
  RunWorkers({
      {[&](WorkerEnv* env, CommChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
        punch_failures = env->metrics->Layer(0).punch_failures;
        relay_msgs = env->metrics->Layer(0).relay_fallback_msgs;
        direct_msgs = env->metrics->Layer(0).direct_msgs;
      }},
      {[&](WorkerEnv* env, CommChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received = std::move(*got);
      }},
  });
  ASSERT_EQ(received.size(), ids.size());
  EXPECT_EQ(received, rows);
  EXPECT_GT(punch_failures, 0);
  EXPECT_GT(relay_msgs, 0);
  EXPECT_EQ(direct_msgs, 0);
}

TEST_P(ChannelConformanceTest, AbortDrainsMidTreeCollective) {
  // Worker 3 dies before contributing; the survivors are mid-collective
  // (root or chain neighbours blocked on the missing rank, depending on
  // topology). The abort flag must drain every blocked participant
  // promptly with kUnavailable instead of letting the tree hang.
  constexpr int32_t kWorkers = 4;
  std::vector<Status> statuses(kWorkers, Status::OK());
  std::vector<double> done_at(kWorkers, 0.0);
  sim_.AddProcess("abort-setter", [this]() {
    sim_.Hold(0.5);
    abort_ = true;
  });
  std::vector<WorkerSpec> specs;
  for (int32_t w = 0; w < kWorkers; ++w) {
    specs.push_back({[&, w](WorkerEnv* env, CommChannel* channel) {
      if (w == 3) return;  // crashed peer: never participates
      const linalg::ActivationRows mine = MakeRows({w}, 8, 3);
      auto got = Reduce(channel, env, Topology(),
                        Block(CollectiveOp::kReduce, kWorkers), kWorkers, mine);
      statuses[w] = got.status();
      done_at[w] = env->cloud->sim()->Now();
    }});
  }
  RunWorkers(std::move(specs));
  int unavailable = 0;
  for (int32_t w = 0; w < kWorkers - 1; ++w) {
    ASSERT_TRUE(statuses[w].ok() ||
                statuses[w].code() == StatusCode::kUnavailable)
        << "worker " << w << ": " << statuses[w].ToString();
    if (!statuses[w].ok()) ++unavailable;
    // Bounded by one poll/pop wait after the abort, with scheduling slack.
    EXPECT_LT(done_at[w], 0.5 + 2.0 * options_.poll_wait_s + 1.0)
        << "worker " << w;
  }
  // Whatever the topology, somebody was waiting on rank 3's contribution.
  EXPECT_GE(unavailable, 1);
}

TEST_P(ChannelConformanceTest, TeardownReleasesPerRunResources) {
  // Teardown must be idempotent and, for the KV backend, actually delete
  // the run's namespace (billing its node time).
  FSD_CHECK_OK(ProvisionChannelResources(&cloud_, options_));
  ASSERT_TRUE(TeardownChannelResources(&cloud_, options_).ok());
  ASSERT_TRUE(TeardownChannelResources(&cloud_, options_).ok());
  if (Backend() == Variant::kKv) {
    EXPECT_FALSE(
        cloud_.kv().NamespaceExists(KvChannel::NamespaceName(options_)));
    EXPECT_GT(
        cloud_.billing().line(cloud::BillingDimension::kKvNodeSecond).events,
        0u);
  }
}

}  // namespace
}  // namespace fsd::core
