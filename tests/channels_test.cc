// Direct unit tests of the communication channels, below the worker layer:
// chunking, publish packing, empty-send markers, cross-phase stashing, the
// object channel's .nul/redundant-read optimizations, checked framing, and
// the one receive loop every backend's poll step runs under.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "cloud/cloud.h"
#include "codec/varint.h"
#include "core/channel.h"
#include "core/collectives.h"
#include "core/direct_channel.h"
#include "core/kv_channel.h"
#include "core/object_channel.h"
#include "core/queue_channel.h"
#include "core/worker.h"
#include "common/strings.h"

namespace fsd::core {
namespace {

/// Rows `ids` (ascending), each holding entries 0..nnz-1 of width `dim`.
linalg::ActivationRows MakeRows(std::vector<int32_t> ids, int32_t dim,
                                int32_t nnz) {
  linalg::ActivationRows out;
  for (int32_t id : ids) {
    std::vector<int32_t> idx;
    std::vector<float> val;
    for (int32_t j = 0; j < nnz; ++j) {
      idx.push_back(j);
      val.push_back(static_cast<float>(id) + 0.25f * j);
    }
    out.Append(id, dim, idx.data(), val.data(), idx.size());
  }
  return out;
}

/// The union of `received`, a later body winning a repeated id.
linalg::ActivationRows Merged(const ReceivedRows& received) {
  std::vector<const linalg::ActivationRows*> parts;
  for (const linalg::ActivationRows& rows : received) parts.push_back(&rows);
  return linalg::MergeRows(parts);
}

/// The single wire chunk carrying `ids` of `rows` under `options`' codec.
Bytes EncodeOne(const linalg::ActivationRows& rows,
                const std::vector<int32_t>& ids,
                const FsdOptions& options = FsdOptions{}) {
  return EncodeRows(CollectRows(rows, ids), 0, WireCodecFromOptions(options))
      .chunks[0]
      .wire;
}

/// Harness: runs `body` inside FaaS handlers (one per worker id), giving
/// each a WorkerEnv bound to a fresh channel instance.
class ChannelTest : public ::testing::Test {
 protected:
  ChannelTest() : cloud_(&sim_) {
    options_.num_workers = 4;
    options_.poll_wait_s = 2.0;
    options_.object_scan_interval_s = 0.01;
  }

  template <typename Channel>
  void RunWorkers(
      std::vector<std::function<void(WorkerEnv*, Channel*)>> bodies) {
    FSD_CHECK_OK(Channel::Provision(&cloud_, options_));
    for (size_t id = 0; id < bodies.size(); ++id) {
      metrics_.emplace_back(std::make_unique<WorkerMetrics>());
    }
    for (size_t id = 0; id < bodies.size(); ++id) {
      cloud::FaasFunctionConfig fn;
      fn.name = fsd::StrFormat("w%zu", id);
      fn.memory_mb = 2048;
      fn.timeout_s = 600.0;
      auto body = bodies[id];
      WorkerMetrics* metrics = metrics_[id].get();
      const int32_t worker_id = static_cast<int32_t>(id);
      fn.handler = [this, body, metrics, worker_id](cloud::FaasContext* ctx) {
        Channel channel;
        WorkerEnv env;
        env.faas = ctx;
        env.cloud = &cloud_;
        env.options = &options_;
        env.metrics = metrics;
        env.worker_id = worker_id;
        body(&env, &channel);
        ctx->set_result(Status::OK());
      };
      FSD_CHECK_OK(cloud_.faas().RegisterFunction(fn));
    }
    sim_.AddProcess("kickoff", [this, n = bodies.size()]() {
      for (size_t id = 0; id < n; ++id) {
        cloud_.faas().InvokeAsync(fsd::StrFormat("w%zu", id), {});
      }
    });
    sim_.Run();
  }

  sim::Simulation sim_;
  cloud::CloudEnv cloud_;
  FsdOptions options_;
  std::vector<std::unique_ptr<WorkerMetrics>> metrics_;
};

TEST_F(ChannelTest, QueueRoundtripBetweenWorkers) {
  const linalg::ActivationRows rows = MakeRows({3, 7, 11}, 16, 4);
  const std::vector<int32_t> ids = {3, 7, 11};
  linalg::ActivationRows received;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received = std::move(*got);
      },
  });
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received, rows);
}

TEST_F(ChannelTest, QueueChunksLargePayloads) {
  options_.max_message_bytes = 512;  // force many chunks
  std::vector<int32_t> ids;
  for (int32_t i = 0; i < 40; ++i) ids.push_back(i);
  const linalg::ActivationRows rows = MakeRows(ids, 64, 48);
  linalg::ActivationRows received;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
        EXPECT_GT(env->metrics->Layer(0).send_chunks, 5);
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        received = std::move(*got);
      },
  });
  ASSERT_EQ(received.size(), ids.size());
  EXPECT_EQ(received, rows);
}

TEST_F(ChannelTest, QueueEmptySendDeliversMarker) {
  const linalg::ActivationRows empty;
  static const std::vector<int32_t> ids = {5, 6};
  bool receiver_done = false;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, empty, sends).ok());
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        // Must terminate (marker received) rather than poll forever.
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->empty());
        receiver_done = true;
      },
  });
  EXPECT_TRUE(receiver_done);
}

TEST_F(ChannelTest, QueueStashesOutOfPhaseMessages) {
  const linalg::ActivationRows rows0 = MakeRows({1}, 8, 3);
  const linalg::ActivationRows rows1 = MakeRows({2}, 8, 3);
  static const std::vector<int32_t> ids0 = {1};
  static const std::vector<int32_t> ids1 = {2};
  linalg::ActivationRows got0, got1;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel* channel) {
        // Send BOTH phases before the receiver starts phase 0: the phase-1
        // message lands mid-poll and must be stashed, not lost.
        std::vector<SendSpec> s0{{1, &ids0}};
        std::vector<SendSpec> s1{{1, &ids1}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows0, s0).ok());
        ASSERT_TRUE(channel->SendRows(env, 1, rows1, s1).ok());
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        env->faas->SleepFor(1.0).ok();  // let both phases arrive
        auto r0 = Recv(channel, env, 0, {0});
        ASSERT_TRUE(r0.ok());
        got0 = std::move(*r0);
        auto r1 = Recv(channel, env, 1, {0});
        ASSERT_TRUE(r1.ok());
        got1 = std::move(*r1);
      },
  });
  EXPECT_LT(got0.Find(1), got0.size());
  EXPECT_LT(got1.Find(2), got1.size());
}

TEST_F(ChannelTest, QueueGreedyPackingReducesPublishes) {
  // 4 targets x small payloads: greedy packing folds them into one publish
  // batch; disabled packing issues one publish per message.
  auto run = [&](bool packing) {
    int64_t publishes = 0;
    options_.greedy_packing = packing;
    sim::Simulation sim;
    cloud::CloudEnv cloud(&sim);
    FSD_CHECK_OK(QueueChannel::Provision(&cloud, options_));
    WorkerMetrics metrics;
    cloud::FaasFunctionConfig fn;
    fn.name = "sender";
    fn.memory_mb = 2048;
    fn.timeout_s = 60.0;
    const linalg::ActivationRows rows = MakeRows({0}, 8, 2);
    static const std::vector<int32_t> ids = {0};
    fn.handler = [&](cloud::FaasContext* ctx) {
      QueueChannel channel;
      WorkerEnv env;
      env.faas = ctx;
      env.cloud = &cloud;
      env.options = &options_;
      env.metrics = &metrics;
      env.worker_id = 0;
      std::vector<SendSpec> sends{{1, &ids}, {2, &ids}, {3, &ids}};
      FSD_CHECK_OK(channel.SendRows(&env, 0, rows, sends));
      publishes = metrics.Layer(0).publishes;
      ctx->set_result(Status::OK());
    };
    FSD_CHECK_OK(cloud.faas().RegisterFunction(fn));
    sim.AddProcess("kick", [&]() { cloud.faas().InvokeAsync("sender", {}); });
    sim.Run();
    return publishes;
  };
  EXPECT_EQ(run(true), 1);
  EXPECT_EQ(run(false), 3);
}

TEST_F(ChannelTest, ObjectRoundtripAndNulMarkers) {
  const linalg::ActivationRows rows = MakeRows({4, 9}, 16, 4);
  static const std::vector<int32_t> ids = {4, 9};
  static const std::vector<int32_t> empty_ids = {77};
  linalg::ActivationRows received_data;
  linalg::ActivationRows received_empty;
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        std::vector<SendSpec> sends{{2, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
        EXPECT_EQ(env->metrics->Layer(0).puts_dat, 1);
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        // Nothing to send: a 0-byte .nul marker goes out instead.
        std::vector<SendSpec> sends{{2, &empty_ids}};
        linalg::ActivationRows nothing;
        ASSERT_TRUE(channel->SendRows(env, 0, nothing, sends).ok());
        EXPECT_EQ(env->metrics->Layer(0).puts_nul, 1);
        EXPECT_EQ(env->metrics->Layer(0).puts_dat, 0);
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = Recv(channel, env, 0, {0, 1});
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        received_data = std::move(*got);
        // Source 1's .nul completed it without a GET.
        EXPECT_EQ(env->metrics->Layer(0).nul_skipped, 1);
        EXPECT_EQ(env->metrics->Layer(0).gets, 1);
      },
  });
  ASSERT_EQ(received_data.size(), 2u);
  EXPECT_EQ(received_data, rows);
  (void)received_empty;
}

TEST_F(ChannelTest, ObjectNulDisabledFallsBackToEmptyDat) {
  options_.nul_markers = false;
  static const std::vector<int32_t> empty_ids = {5};
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        linalg::ActivationRows nothing;
        std::vector<SendSpec> sends{{1, &empty_ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, nothing, sends).ok());
        EXPECT_EQ(env->metrics->Layer(0).puts_nul, 0);
        EXPECT_EQ(env->metrics->Layer(0).puts_dat, 1);  // empty .dat
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        EXPECT_TRUE(got->empty());
        // The ablation's cost: an extra GET for an empty file.
        EXPECT_EQ(env->metrics->Layer(0).gets, 1);
        EXPECT_EQ(env->metrics->Layer(0).nul_skipped, 0);
      },
  });
}

TEST_F(ChannelTest, ObjectKeyNamingMatchesPaperScheme) {
  FsdOptions options;
  options.num_buckets = 10;
  EXPECT_EQ(ObjectChannel::BucketName(13, options), "bucket-3");
  EXPECT_EQ(ObjectChannel::ObjectKey(5, 2, 13, false), "5/13/2_13.dat");
  EXPECT_EQ(ObjectChannel::ObjectKey(5, 2, 13, true), "5/13/2_13.nul");
  EXPECT_EQ(QueueChannel::TopicName(13, options), "topic-3");
  EXPECT_EQ(QueueChannel::QueueName(7, options), "queue-7");

  // A channel scope namespaces every resource (per-query isolation in the
  // serving runtime) without changing the paper's shard layout.
  options.channel_scope = "q7-";
  EXPECT_EQ(ObjectChannel::BucketName(13, options), "q7-bucket-3");
  EXPECT_EQ(QueueChannel::TopicName(13, options), "q7-topic-3");
  EXPECT_EQ(QueueChannel::QueueName(7, options), "q7-queue-7");
}

TEST_F(ChannelTest, ObjectScanBackoffBoundsListCalls) {
  // The receiver starts before the sender writes: it must re-scan a few
  // times (bounded by the back-off), not hammer LIST.
  static const std::vector<int32_t> ids = {1};
  const linalg::ActivationRows rows = MakeRows({1}, 8, 2);
  int64_t lists = 0;
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        env->faas->SleepFor(0.5).ok();  // write late
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        lists = env->metrics->Layer(0).lists;
      },
  });
  EXPECT_GT(lists, 1);
  // 0.5 s of waiting at a 10 ms scan interval plus LIST latency: well under
  // a hundred scans.
  EXPECT_LT(lists, 100);
}

TEST_F(ChannelTest, ObjectScanBackoffIsSleptBetweenScans) {
  // A long back-off spaces the scans out: each empty scan sleeps it as the
  // round's window, which is no offload call. Without it the receiver
  // would LIST back to back (about 20 scans over the wait).
  options_.object_scan_interval_s = 0.25;
  static const std::vector<int32_t> ids = {1};
  const linalg::ActivationRows rows = MakeRows({1}, 8, 2);
  int64_t lists = 0;
  int64_t offload_calls = 0;
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel* channel) {
        env->faas->SleepFor(0.5).ok();  // write late
        std::vector<SendSpec> sends{{1, &ids}};
        ASSERT_TRUE(channel->SendRows(env, 0, rows, sends).ok());
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        auto got = Recv(channel, env, 0, {0});
        ASSERT_TRUE(got.ok());
        lists = env->metrics->Layer(0).lists;
        offload_calls = env->metrics->Layer(0).offload_calls;
      },
  });
  EXPECT_GT(lists, 1);
  EXPECT_LE(lists, 5);
  EXPECT_EQ(offload_calls, 1);  // the round that fetched the body
}

// ---------------------------------------------------------------------------
// Framing fields are checked: a garbled or out-of-range header is DataLoss,
// never a silently wrong source or a source that can never complete.

TEST_F(ChannelTest, QueueRejectsNonNumericSourceAttribute) {
  static const std::vector<int32_t> ids = {3};
  const linalg::ActivationRows rows = MakeRows({3}, 16, 4);
  Status status;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel*) {
        // A well-formed chunk whose "src" attribute is not a number.
        cloud::QueueMessage msg;
        msg.body =
            std::make_shared<const Bytes>(EncodeOne(rows, ids, options_));
        msg.attributes = {{"target", "1"}, {"src", "x"}, {"phase", "0"},
                          {"seq", "0"},    {"total", "1"}};
        env->cloud->pubsub().PublishBatch(
            QueueChannel::TopicName(0, options_), {std::move(msg)});
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        status = Recv(channel, env, 0, {0}).status();
      },
  });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

TEST_F(ChannelTest, ObjectRejectsGarbledKeySource) {
  static const std::vector<int32_t> ids = {3};
  const linalg::ActivationRows rows = MakeRows({3}, 16, 4);
  Status status;
  RunWorkers<ObjectChannel>({
      [&](WorkerEnv* env, ObjectChannel*) {
        env->cloud->objects().Put(
            ObjectChannel::BucketName(1, options_), "0/1/x_1.dat",
            std::make_shared<const Bytes>(EncodeOne(rows, ids, options_)));
      },
      [&](WorkerEnv* env, ObjectChannel* channel) {
        status = Recv(channel, env, 0, {0}).status();
      },
  });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

// A source's chunks must agree on its chunk count. Taking each chunk's
// own total would let (seq 0 of 3) then (seq 1 of 2) complete the source
// with a chunk missing — its rows silently absent from the phase.

TEST_F(ChannelTest, QueueRejectsChunksThatDisagreeOnTheirTotal) {
  static const std::vector<int32_t> ids_a = {3};
  static const std::vector<int32_t> ids_b = {5};
  const linalg::ActivationRows rows = MakeRows({3, 5}, 16, 4);
  Status status;
  RunWorkers<QueueChannel>({
      [&](WorkerEnv* env, QueueChannel*) {
        auto message = [&](const std::vector<int32_t>& ids, const char* seq,
                           const char* total) {
          cloud::QueueMessage msg;
          msg.body = std::make_shared<const Bytes>(EncodeOne(rows, ids));
          msg.attributes = {{"target", "1"}, {"src", "0"}, {"phase", "0"},
                            {"seq", seq},    {"total", total}};
          return msg;
        };
        env->cloud->pubsub().PublishBatch(
            QueueChannel::TopicName(0, options_),
            {message(ids_a, "0", "3"), message(ids_b, "1", "2")});
      },
      [&](WorkerEnv* env, QueueChannel* channel) {
        status = Recv(channel, env, 0, {0}).status();
      },
  });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

/// Runs `body` inside one FaaS handler acting as worker 1, on a fresh cloud
/// (`config`, with `options.variant`'s channel resources provisioned) whose
/// simulation has `compute_threads` offload pool threads; returns the run's
/// offload counters.
sim::OffloadStats RunOnPool(int compute_threads, const FsdOptions& options,
                            const std::function<void(WorkerEnv*)>& body,
                            const cloud::CloudConfig& config = {}) {
  sim::SimTuning tuning;
  tuning.compute_threads = compute_threads;
  sim::Simulation sim(tuning);
  cloud::CloudEnv cloud(&sim, config);
  FSD_CHECK_OK(ProvisionChannelResources(&cloud, options));
  WorkerMetrics metrics;
  cloud::FaasFunctionConfig fn;
  fn.name = "w1";
  fn.memory_mb = 2048;
  fn.timeout_s = 600.0;
  fn.handler = [&](cloud::FaasContext* ctx) {
    WorkerEnv env;
    env.faas = ctx;
    env.cloud = &cloud;
    env.options = &options;
    env.metrics = &metrics;
    env.worker_id = 1;
    body(&env);
    ctx->set_result(Status::OK());
  };
  FSD_CHECK_OK(cloud.faas().RegisterFunction(fn));
  sim.AddProcess("kickoff", [&]() { cloud.faas().InvokeAsync("w1", {}); });
  sim.Run();
  return sim.offload_stats();
}

// The KV channel and both of the direct channel's pops, fabric and relay,
// parse the same inbox value header, so each rejects hostile framing alike.

/// Where source 0's inbox values for worker 1 land.
enum class Inbox { kKv, kDirectFabric, kDirectRelay };

const char* InboxName(Inbox inbox) {
  switch (inbox) {
    case Inbox::kKv: return "kv";
    case Inbox::kDirectFabric: return "direct fabric";
    case Inbox::kDirectRelay: return "direct relay";
  }
  return "?";
}

/// Puts `values` where source 0's sends to worker 1 land in phase 0 (the KV
/// inbox list; on the direct channel, a link no punch fails on, or the
/// relay inbox when every punch fails), then receives phase 0 from source 0
/// as worker 1. Returns the receive's status; `layer` gets its counters.
Status ReceiveInboxValues(Inbox inbox, const std::vector<Bytes>& values,
                          LayerMetrics* layer) {
  FsdOptions options;
  options.variant = inbox == Inbox::kKv ? Variant::kKv : Variant::kDirect;
  cloud::CloudConfig config;
  config.latency.p2p_punch_failure_rate =
      inbox == Inbox::kDirectRelay ? 1.0 : 0.0;
  Status status = Status::Internal("never received");
  RunOnPool(
      0, options,
      [&](WorkerEnv* env) {
        cloud::CloudEnv* cloud = env->cloud;
        const std::string key = KvChannel::InboxKey(0, 1);
        const std::string session = DirectChannel::SessionName(options);
        for (const Bytes& value : values) {
          SharedBytes shared = std::make_shared<const Bytes>(value);
          switch (inbox) {
            case Inbox::kKv:
              cloud->kv().Push(KvChannel::NamespaceName(options), key,
                               shared);
              break;
            case Inbox::kDirectFabric:
              ASSERT_TRUE(cloud->p2p().Connect(session, 0, 1).punched);
              ASSERT_TRUE(
                  cloud->p2p().Send(session, 0, 1, key, shared).status.ok());
              break;
            case Inbox::kDirectRelay:
              cloud->kv().Push(DirectChannel::RelayNamespaceName(options),
                               key, shared);
              break;
          }
        }
        std::unique_ptr<CommChannel> channel =
            MakeCommChannel(options.variant);
        status = channel->ReceiveRows(env, 0, {0}).status();
        *layer = env->metrics->Layer(0);
      },
      config);
  return status;
}

// A source's chunks must agree on its chunk count, on every inbox.
TEST(InboxChannel, RejectsChunksThatDisagreeOnTheirTotal) {
  const linalg::ActivationRows rows = MakeRows({3, 5}, 16, 4);
  const std::vector<Bytes> values = {
      EncodeInboxValue(0, 0, 3, EncodeOne(rows, {3})),
      EncodeInboxValue(0, 1, 2, EncodeOne(rows, {5}))};
  for (const Inbox inbox :
       {Inbox::kKv, Inbox::kDirectFabric, Inbox::kDirectRelay}) {
    LayerMetrics layer;
    const Status status = ReceiveInboxValues(inbox, values, &layer);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss)
        << InboxName(inbox) << ": " << status.ToString();
    // The values were read off the inbox under test.
    EXPECT_EQ(layer.direct_pops > 0, inbox == Inbox::kDirectFabric)
        << InboxName(inbox);
    EXPECT_EQ(layer.kv_pops > 0, inbox != Inbox::kDirectFabric)
        << InboxName(inbox);
  }
}

TEST(InboxChannel, RejectsATruncatedHeader) {
  const Bytes truncated[] = {
      {},            // no header at all
      {0x00, 0x80},  // seq's varint runs past the end
      {0x00, 0x00},  // no total
  };
  for (const Inbox inbox :
       {Inbox::kKv, Inbox::kDirectFabric, Inbox::kDirectRelay}) {
    for (const Bytes& value : truncated) {
      LayerMetrics layer;
      const Status status = ReceiveInboxValues(inbox, {value}, &layer);
      EXPECT_EQ(status.code(), StatusCode::kDataLoss)
          << InboxName(inbox) << " " << value.size()
          << " bytes: " << status.ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// The receive loop: CommChannel::ReceiveRows accepts each poll step's chunks
// and starts one detached decode per accepted body; the decodes are joined
// once every source is complete. Results must match sequential decoding for
// every pool size, errors included.

/// A channel whose poll steps hand back scripted rounds, in order: the
/// receive loop with no service behind it.
class ScriptedChannel : public CommChannel {
 public:
  explicit ScriptedChannel(std::vector<PollResult> rounds)
      : rounds_(std::move(rounds)) {}

  std::string_view name() const override { return "scripted"; }
  Status SendRows(WorkerEnv*, int32_t, const linalg::ActivationRows&,
                  const std::vector<SendSpec>&) override {
    return Status::Unimplemented("a scripted channel only receives");
  }
  size_t polls() const { return polls_; }

 protected:
  Result<PollResult> PollStep(WorkerEnv*, int32_t, const PendingSources&,
                              bool) override {
    if (polls_ == rounds_.size()) {
      return Status::Internal("scripted rounds exhausted");
    }
    return std::move(rounds_[polls_++]);
  }

 private:
  std::vector<PollResult> rounds_;
  size_t polls_ = 0;
};

/// One round delivering source 0's chunks `first_seq`, `first_seq` + 1, ...
/// of `total`, one per wire, each read whole as a queue message or an
/// object GET hands it over, after `service_s` of service time.
PollResult Round(int32_t first_seq, int32_t total,
                 std::initializer_list<Bytes> wires, double service_s = 0.0) {
  PollResult round;
  round.service_s = service_s;
  int32_t seq = first_seq;
  for (const Bytes& wire : wires) {
    round.chunks.push_back(
        ReceivedChunk{0, seq++, total, std::make_shared<const Bytes>(wire)});
  }
  return round;
}

TEST(PhaseReceiverTest, LaterBodyWinsARepeatedRowId) {
  // Row 5 arrives twice with different values; the second arrival wins and
  // counts once, exactly as two sequential DecodeRows calls would.
  linalg::ActivationRows first = MakeRows({3, 5}, 16, 4);
  linalg::ActivationRows second = MakeRows({5, 7}, 16, 2);
  const Bytes a = EncodeOne(first, {3, 5});
  const Bytes b = EncodeOne(second, {5, 7});
  linalg::ActivationRows sequential;
  ASSERT_TRUE(DecodeRows(a, &sequential).ok());
  ASSERT_TRUE(DecodeRows(b, &sequential).ok());
  ASSERT_EQ(sequential.ToMap().at(5), second.ToMap().at(5));

  for (const int pool : {0, 1, 4}) {
    Result<ReceivedRows> got = Status::Internal("never received");
    int64_t recv_rows = -1;
    size_t polls = 0;
    RunOnPool(pool, FsdOptions{}, [&](WorkerEnv* env) {
      ScriptedChannel channel({Round(0, 2, {a}), Round(1, 2, {b})});
      got = channel.ReceiveRows(env, 0, {0});
      polls = channel.polls();
      recv_rows = env->metrics->Layer(0).recv_rows;
    });
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " pool=" << pool;
    EXPECT_EQ(polls, 2u) << "pool=" << pool;  // done after both chunks
    EXPECT_EQ(Merged(*got), sequential) << "pool=" << pool;
    EXPECT_EQ(recv_rows, static_cast<int64_t>(sequential.size()))
        << "pool=" << pool;
  }
}

TEST(PhaseReceiverTest, FlatRowsLetTheLatestArrivalWinInTheRowTable) {
  // Row 5 arrives in three bodies: alone in one window, then twice in the
  // next. The receive hands back the bodies unmerged in arrival order,
  // recv_rows counts the three distinct ids, and the row table the kernel
  // reads views the last arrival's row 5 (a local row still beats them).
  const linalg::ActivationRows first = MakeRows({3, 5}, 16, 4);
  const linalg::ActivationRows second = MakeRows({5, 7}, 16, 2);
  const linalg::ActivationRows third = MakeRows({5, 9}, 16, 1);
  const Bytes a = EncodeOne(first, {3, 5});
  const Bytes b = EncodeOne(second, {5, 7});
  const Bytes c = EncodeOne(third, {5, 9});
  linalg::ActivationRows sequential;
  for (const Bytes* body : {&a, &b, &c}) {
    ASSERT_TRUE(DecodeRows(*body, &sequential).ok());
  }
  const linalg::ActivationRows local = MakeRows({9}, 16, 3);

  for (const int pool : {0, 1, 4}) {
    Result<ReceivedRows> got = Status::Internal("never received");
    int64_t recv_rows = -1;
    size_t polls = 0;
    RunOnPool(pool, FsdOptions{}, [&](WorkerEnv* env) {
      ScriptedChannel channel({Round(0, 3, {a}), Round(1, 3, {b, c})});
      got = channel.ReceiveRows(env, 0, {0});
      polls = channel.polls();
      recv_rows = env->metrics->Layer(0).recv_rows;
    });
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " pool=" << pool;
    EXPECT_EQ(polls, 2u) << "pool=" << pool;  // done after all three
    ASSERT_EQ(got->size(), 3u) << "pool=" << pool;
    EXPECT_EQ((*got)[0], first) << "pool=" << pool;
    EXPECT_EQ((*got)[1], second) << "pool=" << pool;
    EXPECT_EQ((*got)[2], third) << "pool=" << pool;
    EXPECT_EQ(Merged(*got), sequential) << "pool=" << pool;
    EXPECT_EQ(recv_rows, 4) << "pool=" << pool;  // ids 3, 5, 7, 9

    std::vector<linalg::RowView> table;
    ASSERT_TRUE(BuildRowTable(local, *got, 16, 16, &table).ok());
    EXPECT_EQ(table[5].val, (*got)[2].row(0).val) << "pool=" << pool;
    EXPECT_EQ(table[5].nnz, 1) << "pool=" << pool;
    EXPECT_EQ(table[3].nnz, 4) << "pool=" << pool;
    EXPECT_EQ(table[7].nnz, 2) << "pool=" << pool;
    EXPECT_EQ(table[9].val, local.row(0).val) << "pool=" << pool;
    EXPECT_TRUE(table[4].empty()) << "pool=" << pool;
  }
}

TEST(PhaseReceiverTest, RecvRowsCountsWideIdsOnce) {
  // Ids past the receiver's id bitmap (a hostile sender's) still count
  // once each across bodies.
  const int32_t wide = 1 << 23;
  const linalg::ActivationRows rows = MakeRows({5, wide, wide + 1}, 16, 2);
  const Bytes a = EncodeOne(rows, {5, wide});
  const Bytes b = EncodeOne(rows, {wide, wide + 1});
  int64_t recv_rows = -1;
  RunOnPool(0, FsdOptions{}, [&](WorkerEnv* env) {
    ScriptedChannel channel({Round(0, 2, {a, b})});
    ASSERT_TRUE(channel.ReceiveRows(env, 0, {0}).ok());
    recv_rows = env->metrics->Layer(0).recv_rows;
  });
  EXPECT_EQ(recv_rows, 3);
}

TEST(PhaseReceiverTest, FinishReturnsTheFirstCorruptBodysError) {
  // Three bodies in one window: valid, retagged, empty. The decodes defer
  // their errors, so the receive polls on for the phase's last chunk; it
  // then reports the retagged body's error, the first in arrival order,
  // whatever the pool size.
  const linalg::ActivationRows rows = MakeRows({3, 5}, 16, 4);
  const Bytes valid = EncodeOne(rows, {3, 5});
  Bytes retagged = valid;
  retagged[0] = 0xEE;  // no wire format uses this tag
  linalg::ActivationRows scratch;
  const Status expected = DecodeRows(retagged, &scratch);
  ASSERT_EQ(expected.code(), StatusCode::kDataLoss);
  ASSERT_NE(expected.ToString(), DecodeRows(Bytes{}, &scratch).ToString());

  for (const int pool : {0, 1, 4}) {
    size_t polls = 0;
    Status finished;
    RunOnPool(pool, FsdOptions{}, [&](WorkerEnv* env) {
      ScriptedChannel channel(
          {Round(0, 4, {valid, retagged, Bytes{}}), Round(3, 4, {valid})});
      finished = channel.ReceiveRows(env, 0, {0}).status();
      polls = channel.polls();
    });
    EXPECT_EQ(polls, 2u) << "pool=" << pool;
    EXPECT_EQ(finished.ToString(), expected.ToString()) << "pool=" << pool;
  }
}

// The deserialization rule: a round takes at most one window, of its
// service time plus its accepted body bytes at the deserialize rate. The
// window is slept when the round accepted a body or has service time, and
// counts one offload call only when a body was accepted.

/// What one scripted receive of source 0 charged: its layer counters, the
/// virtual time it took, the kernel events it dispatched, and the
/// deserialize rate it ran under.
struct ScriptedReceive {
  LayerMetrics layer;
  double elapsed_s = 0.0;
  uint64_t events = 0;
  double bytes_per_s = 0.0;
};

ScriptedReceive ReceiveScripted(int pool, std::vector<PollResult> rounds) {
  ScriptedReceive out;
  const size_t scripted = rounds.size();
  RunOnPool(pool, FsdOptions{}, [&](WorkerEnv* env) {
    sim::Simulation* sim = env->cloud->sim();
    out.bytes_per_s = env->cloud->compute().deserialize_bytes_per_s;
    const double start = sim->Now();
    const uint64_t events = sim->events_dispatched();
    ScriptedChannel channel(std::move(rounds));
    const Status status = channel.ReceiveRows(env, 0, {0}).status();
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(channel.polls(), scripted);
    out.elapsed_s = sim->Now() - start;
    out.events = sim->events_dispatched() - events;
    out.layer = env->metrics->Layer(0);
  });
  return out;
}

TEST(ChannelReceiveWindow, ChargesServicePlusAcceptedBytesOncePerRound) {
  const linalg::ActivationRows rows = MakeRows({3, 5, 7}, 16, 4);
  const Bytes a = EncodeOne(rows, {3});
  const Bytes b = EncodeOne(rows, {5});
  const Bytes c = EncodeOne(rows, {7});
  for (const int pool : {0, 1, 4}) {
    // Two bodies and 0.25 s of service in the first round, one body in the
    // second: two windows, two offload calls.
    const ScriptedReceive got = ReceiveScripted(
        pool, {Round(0, 3, {a, b}, /*service_s=*/0.25), Round(2, 3, {c})});
    const double first_deser =
        static_cast<double>(a.size() + b.size()) / got.bytes_per_s;
    const double second_deser =
        static_cast<double>(c.size()) / got.bytes_per_s;
    const double windows = (0.25 + first_deser) + second_deser;
    EXPECT_EQ(got.layer.offload_calls, 2) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(got.layer.offload_virtual_s, windows) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(got.layer.deserialize_s, first_deser + second_deser)
        << "pool=" << pool;
    // Elapsed virtual time is a difference of two clock readings.
    EXPECT_NEAR(got.elapsed_s, windows, 1e-12) << "pool=" << pool;
    EXPECT_NEAR(got.layer.recv_wait_s, windows, 1e-12) << "pool=" << pool;
    EXPECT_EQ(got.layer.recv_wire_bytes,
              static_cast<int64_t>(a.size() + b.size() + c.size()))
        << "pool=" << pool;
  }
}

TEST(ChannelReceiveWindow, AllRedundantRoundTakesNoWindow) {
  const linalg::ActivationRows rows = MakeRows({3, 5}, 16, 4);
  const Bytes a = EncodeOne(rows, {3});
  const Bytes b = EncodeOne(rows, {5});
  for (const int pool : {0, 1, 4}) {
    const ScriptedReceive plain =
        ReceiveScripted(pool, {Round(0, 2, {a}), Round(1, 2, {b})});
    // The same receive with a middle round redelivering chunk 0.
    const ScriptedReceive redundant = ReceiveScripted(
        pool, {Round(0, 2, {a}), Round(0, 2, {a}), Round(1, 2, {b})});
    EXPECT_EQ(redundant.layer.redundant_skipped, 1) << "pool=" << pool;
    EXPECT_EQ(redundant.layer.offload_calls, 2) << "pool=" << pool;
    EXPECT_EQ(redundant.layer.offload_calls, plain.layer.offload_calls)
        << "pool=" << pool;
    EXPECT_EQ(redundant.layer.offload_virtual_s,
              plain.layer.offload_virtual_s)
        << "pool=" << pool;
    EXPECT_EQ(redundant.layer.deserialize_s, plain.layer.deserialize_s)
        << "pool=" << pool;
    EXPECT_EQ(redundant.elapsed_s, plain.elapsed_s) << "pool=" << pool;
    // Not even a zero-length sleep: the kernel saw the same events.
    EXPECT_EQ(redundant.events, plain.events) << "pool=" << pool;
  }
}

TEST(ChannelReceiveWindow, ServiceTimeIsSleptWithoutAnAcceptedBody) {
  const linalg::ActivationRows rows = MakeRows({3, 5}, 16, 4);
  const Bytes a = EncodeOne(rows, {3});
  const Bytes b = EncodeOne(rows, {5});
  for (const int pool : {0, 1, 4}) {
    // Between the two bodies: a round with service time and no chunk (as
    // the object channel's re-LIST back-off is), and one with service time
    // and only a redelivery.
    const ScriptedReceive got = ReceiveScripted(
        pool, {Round(0, 2, {a}), Round(0, 2, {}, /*service_s=*/0.125),
               Round(0, 2, {a}, /*service_s=*/0.0625), Round(1, 2, {b})});
    const double a_deser = static_cast<double>(a.size()) / got.bytes_per_s;
    const double b_deser = static_cast<double>(b.size()) / got.bytes_per_s;
    EXPECT_NEAR(got.elapsed_s, a_deser + 0.125 + 0.0625 + b_deser, 1e-12)
        << "pool=" << pool;
    // Only the rounds that accepted a body are offload calls.
    EXPECT_EQ(got.layer.offload_calls, 2) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(got.layer.offload_virtual_s, a_deser + b_deser)
        << "pool=" << pool;
    EXPECT_DOUBLE_EQ(got.layer.deserialize_s, a_deser + b_deser)
        << "pool=" << pool;
    EXPECT_EQ(got.layer.redundant_skipped, 1) << "pool=" << pool;
  }
}

TEST(PhaseReceiverTest, EarlyExitJoinsDecodesBeforeTheirBuffersDie) {
  // An aborted receive returns while its decodes are still queued: the only
  // pool thread is pinned until after the receive returned. The receive
  // loop must join them (here by reclaiming them) before the slots they
  // write into die; under ASan a missed join is a use-after-free.
  FsdOptions options;
  options.variant = Variant::kKv;
  const linalg::ActivationRows rows = MakeRows({3, 5, 7}, 16, 4);
  Status status;
  const sim::OffloadStats stats = RunOnPool(
      /*compute_threads=*/1, options, [&](WorkerEnv* env) {
        sim::Simulation* sim = env->cloud->sim();
        std::atomic<bool> released{false};
        sim::OffloadGroup pin(sim);
        sim->StartDetached(&pin, [&released]() {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!released.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        });
        const std::string ns = KvChannel::NamespaceName(options);
        const std::string inbox = KvChannel::InboxKey(0, 1);
        for (int32_t seq = 0; seq < 3; ++seq) {
          env->cloud->kv().Push(
              ns, inbox,
              std::make_shared<const Bytes>(EncodeInboxValue(
                  0, seq, 3, EncodeOne(rows, {3 + 2 * seq}))));
        }
        bool aborted = false;
        env->abort = &aborted;
        sim->ScheduleCallback(2.5, [&aborted]() { aborted = true; });
        KvChannel channel;
        // Source 1 never sends, so only the abort ends the receive.
        status = Recv(&channel, env, 0, {0, 1}).status();
        released = true;
      });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  EXPECT_GE(stats.reclaimed, 3u);
}

// ---------------------------------------------------------------------------
// Detached encode: EncodeSends starts one offload job per send and joins
// them after the charged window. Wire bytes, metrics and the event stream
// must not depend on the pool size, and no error may return before the
// join.

/// A 7-send layer step of worker 1 on an 8-worker queue channel: 96 rows,
/// each sent to two targets, under a chunk cap small enough that every
/// send spans several chunks.
struct SevenSendStep {
  SevenSendStep() {
    options.num_workers = 8;
    options.max_message_bytes = 2048;
    std::vector<int32_t> ids;
    for (int32_t id = 0; id < 96; ++id) ids.push_back(id);
    source = MakeRows(ids, 64, 24);
    rows.resize(7);
    for (const int32_t id : ids) {
      rows[id % 7].push_back(id);
      rows[(id + 3) % 7].push_back(id);
    }
    const int32_t targets[] = {0, 2, 3, 4, 5, 6, 7};
    for (size_t s = 0; s < rows.size(); ++s) {
      sends.push_back({targets[s], &rows[s]});
    }
  }

  FsdOptions options;
  linalg::ActivationRows source;
  std::vector<std::vector<int32_t>> rows;
  std::vector<SendSpec> sends;
};

/// The send-side LayerMetrics counters, exactly.
std::string SendCounters(const LayerMetrics& m) {
  return fsd::StrFormat(
      "targets=%lld mapped=%lld active=%lld chunks=%lld raw=%lld wire=%lld "
      "billed=%lld publishes=%lld publish_chunks=%lld serialize=%.17g "
      "offload=%lld/%.17g",
      static_cast<long long>(m.send_targets),
      static_cast<long long>(m.send_rows_mapped),
      static_cast<long long>(m.send_rows_active),
      static_cast<long long>(m.send_chunks),
      static_cast<long long>(m.send_raw_bytes),
      static_cast<long long>(m.send_wire_bytes),
      static_cast<long long>(m.send_billed_bytes),
      static_cast<long long>(m.publishes),
      static_cast<long long>(m.publish_chunks), m.serialize_s,
      static_cast<long long>(m.offload_calls), m.offload_virtual_s);
}

TEST(ChannelEncodeSends, SevenSendStepIsIdenticalOnEveryPoolSize) {
  const SevenSendStep step;
  struct Outcome {
    Status status = Status::Internal("never sent");
    std::map<std::pair<int32_t, int32_t>, Bytes> wires;  // (target, seq)
    std::string counters;
    uint64_t events = 0;
  };
  std::vector<Outcome> outcomes;
  for (const int pool : {0, 1, 4}) {
    Outcome& out = outcomes.emplace_back();
    RunOnPool(pool, step.options, [&](WorkerEnv* env) {
      QueueChannel channel;
      out.status = channel.SendRows(env, 0, step.source, step.sends);
      // Read every chunk back off its target's queue, as published.
      for (const SendSpec& send : step.sends) {
        const std::string queue =
            QueueChannel::QueueName(send.target, step.options);
        for (;;) {
          auto got = env->cloud->queues().Receive(queue, 10, 1.0);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          if (got->empty()) break;
          for (const cloud::QueueMessage& msg : *got) {
            auto seq = ParseFrameInt(msg.attributes.at("seq"));
            ASSERT_TRUE(seq.ok()) << seq.status().ToString();
            out.wires[{send.target, *seq}] = *msg.body;
          }
        }
      }
      out.counters = SendCounters(env->metrics->Layer(0));
      out.events = env->cloud->sim()->events_dispatched();
    });
    ASSERT_TRUE(out.status.ok()) << out.status.ToString() << " pool=" << pool;
  }
  const Outcome& inline_run = outcomes[0];
  // Every send spans several chunks, and every chunk arrived.
  EXPECT_GT(inline_run.wires.size(), 2 * step.sends.size());
  EXPECT_NE(inline_run.counters.find(fsd::StrFormat(
                "chunks=%zu ", inline_run.wires.size())),
            std::string::npos)
      << inline_run.counters;
  for (size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].wires, inline_run.wires) << "run " << i;
    EXPECT_EQ(outcomes[i].counters, inline_run.counters) << "run " << i;
    EXPECT_EQ(outcomes[i].events, inline_run.events) << "run " << i;
  }
}

TEST(ChannelEncodeSends, DeadlineErrorReturnsOnlyAfterEveryEncodeJoined) {
  // The handler is already past its runtime cap, and the only pool thread
  // is pinned until SendRows has returned. The seven queued encodes write
  // into slots on EncodeSends' stack, so they can only have run by being
  // reclaimed by its join before the DeadlineExceeded return. Under ASan,
  // an encode left to run after the return is a use-after-scope.
  const SevenSendStep step;
  Status status;
  sim::OffloadStats at_return;
  bool pin_saw_release = false;
  const sim::OffloadStats stats = RunOnPool(
      /*compute_threads=*/1, step.options, [&](WorkerEnv* env) {
        sim::Simulation* sim = env->cloud->sim();
        sim->Hold(601.0);  // past the handler's 600 s cap
        std::atomic<bool> released{false};
        sim::OffloadGroup pin(sim);
        sim->StartDetached(&pin, [&]() {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!released.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          pin_saw_release = released.load();
        });
        QueueChannel channel;
        status = channel.SendRows(env, 0, step.source, step.sends);
        at_return = sim->offload_stats();
        released = true;
        sim->JoinDetached(&pin);
      });
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_TRUE(pin_saw_release);
  EXPECT_EQ(at_return.calls, 8u);  // the pin and one encode per send
  EXPECT_EQ(at_return.reclaimed, 7u);
  // The pin ran on the pool thread, or on the joiner if that thread had
  // not woken by the release; no encode was left for the pool.
  EXPECT_EQ(stats.pool_runs + stats.reclaimed, 8u);
  EXPECT_GE(stats.reclaimed, 7u);
}

Bytes InboxHeader(uint64_t source, uint64_t seq, uint64_t total) {
  Bytes value;
  codec::PutVarint64(&value, source);
  codec::PutVarint64(&value, seq);
  codec::PutVarint64(&value, total);
  value.push_back(0);  // a one-byte body
  return value;
}

TEST(InboxValue, RejectsHeadersThatNameNoRealChunk) {
  const SharedBytes value = std::make_shared<const Bytes>(InboxHeader(2, 1, 3));
  auto ok = DecodeInboxValue(value);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->source, 2);
  EXPECT_EQ(ok->seq, 1);
  EXPECT_EQ(ok->total, 3);
  // The body is read in place: a view into the popped value, not a copy.
  EXPECT_EQ(ok->buffer, value);
  EXPECT_EQ(Bytes(ok->wire().begin(), ok->wire().end()), Bytes{0});

  const Bytes bad[] = {
      InboxHeader((1ull << 32) + 1, 0, 1),  // would narrow to worker 1
      InboxHeader(1, (1ull << 32) + 1, 1),
      InboxHeader(1, 0, (1ull << 32) + 1),
      InboxHeader(1, 0, 0),  // no chunks: the source never completes
      InboxHeader(1, 3, 3),  // seq past the end
  };
  for (const Bytes& value : bad) {
    EXPECT_EQ(DecodeInboxValue(std::make_shared<const Bytes>(value))
                  .status()
                  .code(),
              StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace fsd::core
