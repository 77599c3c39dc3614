#include "core/share_distributor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/rng.h"
#include "common/strings.h"
#include "core/worker.h"

namespace fsd::core {
namespace {

// The chunk wire format is little-endian (AppendRaw's convention); the
// word-at-a-time pattern writes below rely on it.
static_assert(std::endian::native == std::endian::little);

/// Header of a share chunk: seq, total, payload size.
constexpr uint64_t kShareChunkHeaderBytes = 3 * sizeof(uint64_t);

uint64_t ChunkSeed(const std::string& family, int32_t partition_id,
                   uint64_t version, uint64_t seq) {
  uint64_t h = std::hash<std::string>{}(family);
  h = Mix64(h ^ (static_cast<uint64_t>(static_cast<uint32_t>(partition_id)) |
                 (version << 32)));
  return Mix64(h ^ seq);
}

/// Payload bytes of chunk `seq` when a share of `share_bytes` is cut into
/// `chunk_bytes` pieces (the last chunk carries the remainder).
uint64_t PayloadFor(uint64_t share_bytes, uint64_t chunk_bytes,
                    uint64_t seq) {
  const uint64_t begin = seq * chunk_bytes;
  if (begin >= share_bytes) return 0;
  return std::min(chunk_bytes, share_bytes - begin);
}

}  // namespace

uint64_t ShareDistributor::ChunkCount(uint64_t share_bytes,
                                      uint64_t chunk_bytes) {
  if (chunk_bytes == 0) return 1;
  const uint64_t chunks = (share_bytes + chunk_bytes - 1) / chunk_bytes;
  return chunks > 0 ? chunks : 1;
}

Bytes ShareDistributor::EncodeShareChunk(const std::string& family,
                                         int32_t partition_id,
                                         uint64_t version, uint64_t seq,
                                         uint64_t total,
                                         uint64_t payload_bytes) {
  Bytes out(kShareChunkHeaderBytes + payload_bytes);
  uint8_t* p = out.data();
  const uint64_t header[3] = {seq, total, payload_bytes};
  std::memcpy(p, header, kShareChunkHeaderBytes);
  p += kShareChunkHeaderBytes;
  // Payload byte i is byte (i % 8) of the (i / 8 + 1)-th Mix64 step, low
  // byte first: one memcpy per word, and a ragged tail takes the low bytes
  // of one more word.
  uint64_t state = ChunkSeed(family, partition_id, version, seq);
  const uint64_t words = payload_bytes / 8;
  for (uint64_t w = 0; w < words; ++w, p += 8) {
    state = Mix64(state);
    std::memcpy(p, &state, 8);
  }
  if (const uint64_t tail = payload_bytes % 8; tail != 0) {
    state = Mix64(state);
    std::memcpy(p, &state, tail);
  }
  return out;
}

bool ShareDistributor::ShareChunkMatches(const Bytes& chunk,
                                         const std::string& family,
                                         int32_t partition_id,
                                         uint64_t version, uint64_t seq,
                                         uint64_t total,
                                         uint64_t payload_bytes) {
  if (payload_bytes > chunk.size() ||
      chunk.size() - payload_bytes != kShareChunkHeaderBytes) {
    return false;
  }
  const uint8_t* p = chunk.data();
  const uint64_t header[3] = {seq, total, payload_bytes};
  if (std::memcmp(p, header, kShareChunkHeaderBytes) != 0) return false;
  p += kShareChunkHeaderBytes;
  uint64_t state = ChunkSeed(family, partition_id, version, seq);
  const uint64_t words = payload_bytes / 8;
  for (uint64_t w = 0; w < words; ++w, p += 8) {
    state = Mix64(state);
    uint64_t got;
    std::memcpy(&got, p, 8);
    if (got != state) return false;
  }
  if (const uint64_t tail = payload_bytes % 8; tail != 0) {
    state = Mix64(state);
    return std::memcmp(p, &state, tail) == 0;
  }
  return true;
}

bool ShareDistributor::IsChunk(const SharedBytes& chunk,
                               const std::vector<SharedBytes>& images,
                               const ShareKey& key, uint64_t seq,
                               uint64_t share_bytes, uint64_t chunk_bytes) {
  if (seq >= images.size()) return false;
  // The images are immutable, so the expected buffer itself is the
  // expected bytes; any other buffer gets the full byte check.
  return chunk == images[seq] ||
         ShareChunkMatches(*chunk, key.family, key.partition_id, key.version,
                           seq, images.size(),
                           PayloadFor(share_bytes, chunk_bytes, seq));
}

ShareDistributor::ShareDistributor(cloud::CloudEnv* cloud, Options options)
    : cloud_(cloud),
      options_(std::move(options)),
      session_(options_.scope + "/shares"),
      relay_ns_(options_.scope + "/share-relay") {
  // Control-plane, free; AlreadyExists only if scopes collide, in which
  // case sharing the session is harmless (inbox keys are globally unique).
  (void)cloud_->p2p().CreateSession(session_);
}

ShareDistributor::~ShareDistributor() { Teardown(); }

void ShareDistributor::Teardown() {
  if (torn_down_) return;
  torn_down_ = true;
  (void)cloud_->p2p().DeleteSession(session_);
  if (relay_created_) {
    // Bills the relay namespace's node-seconds for its active window.
    (void)cloud_->kv().DeleteNamespace(relay_ns_);
  }
  // Acquire serves nothing after teardown. Chunks still in flight keep
  // their own references to their images.
  images_.clear();
  for (auto& [key, entry] : entries_) FireChange(&entry);
}

int32_t ShareDistributor::NodeFor(uint64_t instance_id) {
  auto [it, fresh] = nodes_.try_emplace(instance_id, next_node_);
  if (fresh) ++next_node_;
  return it->second;
}

void ShareDistributor::Prune(const ShareKey& key, Entry* entry) {
  std::erase_if(entry->holders, [&key](const Holder& holder) {
    const std::shared_ptr<PartitionCache> cache = holder.cache.lock();
    return cache == nullptr ||
           !cache->Contains(key.family, key.partition_id, key.version);
  });
}

void ShareDistributor::FireChange(Entry* entry) {
  if (entry->change != nullptr) entry->change->Fire();
  entry->change = nullptr;  // re-armed lazily by the next waiter
}

bool ShareDistributor::AdmitsTransfer(const Entry& entry) const {
  switch (options_.topology) {
    case CollectiveTopology::kThroughRoot:
      return true;  // the root streams every requester concurrently (star)
    case CollectiveTopology::kBinomialTree:
      // One concurrent transfer per holder: each completion doubles the
      // serving set, so P requesters drain in ~ceil(log2 P) generations.
      return entry.transfers_in_progress <
             static_cast<int32_t>(entry.holders.size());
    case CollectiveTopology::kRing:
      return entry.transfers_in_progress == 0;  // chain, one link at a time
  }
  return true;
}

const ShareDistributor::Holder* ShareDistributor::PickSource(
    Entry* entry, uint64_t self_instance) {
  const size_t n = entry->holders.size();
  if (n == 0) return nullptr;
  size_t start = 0;
  switch (options_.topology) {
    case CollectiveTopology::kThroughRoot:
      start = 0;  // always the first surviving holder (the root)
      break;
    case CollectiveTopology::kBinomialTree:
      start = static_cast<size_t>(entry->next_pick++ % n);
      break;
    case CollectiveTopology::kRing:
      start = n - 1;  // the most recent completer extends the chain
      break;
  }
  for (size_t i = 0; i < n; ++i) {
    const Holder& holder = entry->holders[(start + i) % n];
    if (holder.instance_id != self_instance) return &holder;
  }
  return nullptr;
}

ShareDistributor::Source ShareDistributor::Acquire(
    cloud::FaasContext* ctx, const FsdOptions& options,
    const std::string& family, int32_t partition_id, uint64_t share_bytes,
    ModelLoadMetrics* metrics, bool mark_prewarmed) {
  if (torn_down_) return Source::kStorage;
  const uint64_t version = options.model_version;
  const ShareKey key{family, partition_id, version};
  sim::Simulation* sim = cloud_->sim();
  const double give_up_at = sim->Now() + options_.max_wait_s;

  while (true) {
    Entry& entry = entries_[key];
    Prune(key, &entry);

    if (!entry.holders.empty() && AdmitsTransfer(entry)) {
      const Holder* source = PickSource(&entry, ctx->instance_id());
      if (source != nullptr) {
        // Pin the holder's cache for the stream's duration so the share
        // cannot be reclaimed from under an in-flight transfer.
        const std::shared_ptr<PartitionCache> pinned = source->cache.lock();
        const int32_t src_node = source->node;
        ++entry.transfers_in_progress;
        const bool delivered =
            Transfer(ctx, key, share_bytes, src_node, metrics);
        --entry.transfers_in_progress;
        if (delivered) {
          PartitionCache* cache = InstancePartitionCache(ctx, options);
          if (cache != nullptr) {
            const PartitionCache::InsertOutcome inserted = cache->Insert(
                family, partition_id, version, share_bytes, mark_prewarmed);
            metrics->cache_evictions += inserted.evicted;
            if (!inserted.inserted) {
              ++metrics->cache_oversize_rejects;
            } else {
              bool known = false;
              for (const Holder& holder : entry.holders) {
                known |= holder.instance_id == ctx->instance_id();
              }
              if (!known) {
                entry.holders.push_back(
                    Holder{ctx->instance_id(), NodeFor(ctx->instance_id()),
                           std::static_pointer_cast<PartitionCache>(
                               ctx->instance_state())});
              }
            }
          }
          ++metrics->share_loads_peer;
          FireChange(&entry);
          return Source::kPeer;
        }
        // Holder or transport failed mid-stream: release the topology
        // slot, wake peers and retry against whatever registry survives.
        FireChange(&entry);
        if (sim->Now() >= give_up_at || !ctx->CheckDeadline().ok()) {
          ++entry.storage_readers;
          return Source::kStorage;
        }
        continue;
      }
    }

    if (entry.holders.empty() && entry.storage_readers == 0 &&
        entry.transfers_in_progress == 0) {
      // Nobody has the share and nobody is fetching it: this requester is
      // the multicast root. It reads from storage; everyone arriving
      // behind it waits for its Publish.
      ++entry.storage_readers;
      return Source::kStorage;
    }

    // A storage read or transfer is in flight (or the topology gate is
    // closed): wait for the registry to change, bounded by our patience
    // and the function deadline, then re-evaluate.
    const double remaining =
        std::min(give_up_at, ctx->deadline()) - sim->Now();
    if (remaining <= 0.0) {
      ++entry.storage_readers;
      return Source::kStorage;
    }
    if (entry.change == nullptr) entry.change = sim->MakeSignal();
    const std::shared_ptr<sim::SimSignal> change = entry.change;
    sim->WaitSignal(change.get(), remaining);
    if (torn_down_ || !ctx->CheckDeadline().ok()) {
      ++entries_[key].storage_readers;
      return Source::kStorage;
    }
  }
}

void ShareDistributor::Publish(cloud::FaasContext* ctx,
                               const FsdOptions& options,
                               const std::string& family,
                               int32_t partition_id) {
  const ShareKey key{family, partition_id, options.model_version};
  Entry& entry = entries_[key];
  if (entry.storage_readers > 0) --entry.storage_readers;
  if (!torn_down_) {
    const auto cache =
        std::static_pointer_cast<PartitionCache>(ctx->instance_state());
    if (cache != nullptr &&
        cache->Contains(family, partition_id, key.version)) {
      bool known = false;
      for (const Holder& holder : entry.holders) {
        known |= holder.instance_id == ctx->instance_id();
      }
      if (!known) {
        entry.holders.push_back(
            Holder{ctx->instance_id(), NodeFor(ctx->instance_id()), cache});
      }
    }
  }
  FireChange(&entry);
}

void ShareDistributor::Abandon(const std::string& family,
                               int32_t partition_id, uint64_t version) {
  const ShareKey key{family, partition_id, version};
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (it->second.storage_readers > 0) --it->second.storage_readers;
  FireChange(&it->second);
}

int64_t ShareDistributor::HolderCount(const std::string& family,
                                      int32_t partition_id,
                                      uint64_t version) {
  const ShareKey key{family, partition_id, version};
  auto it = entries_.find(key);
  if (it == entries_.end()) return 0;
  Prune(key, &it->second);
  return static_cast<int64_t>(it->second.holders.size());
}

bool ShareDistributor::Transfer(cloud::FaasContext* ctx, const ShareKey& key,
                                uint64_t share_bytes, int32_t src_node,
                                ModelLoadMetrics* metrics) {
  const int32_t dst_node = NodeFor(ctx->instance_id());
  const std::string inbox = StrFormat(
      "xfer-%llu", static_cast<unsigned long long>(++next_transfer_));
  const cloud::P2pFabric::ConnectOutcome conn =
      cloud_->p2p().Connect(session_, src_node, dst_node);
  if (!conn.status.ok()) return false;
  if (conn.punched) {
    // Mirror of the fabric's billing: only a FRESH successful punch
    // charged kP2pConnection.
    if (conn.fresh) ++metrics->share_peer_connects;
    return TransferPunched(ctx, key, share_bytes, src_node, dst_node, inbox,
                           metrics);
  }
  // Punch failed (symmetric NAT pair): relay the chunks through the KV
  // namespace at managed-service pricing.
  return TransferRelay(ctx, key, share_bytes, inbox, metrics);
}

std::vector<SharedBytes> ShareDistributor::ChunkImages(const ShareKey& key,
                                                      uint64_t share_bytes,
                                                      uint64_t chunk_bytes) {
  const uint64_t total = ChunkCount(share_bytes, chunk_bytes);
  std::vector<SharedBytes> images;
  images.reserve(total);
  for (uint64_t seq = 0; seq < total; ++seq) {
    const uint64_t payload = PayloadFor(share_bytes, chunk_bytes, seq);
    SharedBytes& image = images_[ChunkKey{key, seq, total, payload}];
    if (image == nullptr) {
      image = std::make_shared<const Bytes>(EncodeShareChunk(
          key.family, key.partition_id, key.version, seq, total, payload));
    }
    images.push_back(image);
  }
  return images;
}

bool ShareDistributor::TransferPunched(cloud::FaasContext* ctx,
                                       const ShareKey& key,
                                       uint64_t share_bytes, int32_t src_node,
                                       int32_t dst_node,
                                       const std::string& inbox,
                                       ModelLoadMetrics* metrics) {
  cloud::P2pFabric& fabric = cloud_->p2p();
  const uint64_t chunk_bytes = options_.peer_chunk_bytes;
  const std::vector<SharedBytes> images =
      ChunkImages(key, share_bytes, chunk_bytes);
  const uint64_t total = images.size();
  for (const SharedBytes& chunk : images) {
    metrics->share_peer_bytes += static_cast<int64_t>(chunk->size());
    ++metrics->share_peer_chunks;
    const cloud::P2pFabric::SendOutcome sent =
        fabric.Send(session_, src_node, dst_node, inbox, chunk);
    if (!sent.status.ok()) return false;
    // The pair shares ONE kernel-TCP stream: successive chunks serialize
    // on the link, so the driver waits out each chunk's wire time before
    // dispatching the next (the relay below fans out over a sharded
    // service instead and needs no such serialization).
    if (!ctx->SleepFor(sent.latency).ok()) return false;
  }
  uint64_t received = 0;
  const double give_up_at = cloud_->sim()->Now() + options_.max_wait_s;
  while (received < total) {
    if (cloud_->sim()->Now() >= give_up_at) return false;
    auto popped = fabric.BlockingPopAll(
        session_, inbox, cloud::kMaxValuesPerPop, options_.pop_wait_s);
    if (!popped.ok() || !ctx->CheckDeadline().ok()) return false;
    for (const SharedBytes& chunk : *popped) {
      if (!IsChunk(chunk, images, key, received, share_bytes, chunk_bytes)) {
        return false;  // corrupted / foreign delivery
      }
      ++received;
    }
  }
  return true;
}

bool ShareDistributor::TransferRelay(cloud::FaasContext* ctx,
                                     const ShareKey& key,
                                     uint64_t share_bytes,
                                     const std::string& inbox,
                                     ModelLoadMetrics* metrics) {
  cloud::KvStore& kv = cloud_->kv();
  if (!relay_created_) {
    const Status created = kv.CreateNamespace(relay_ns_);
    if (!created.ok() && !cloud_->kv().NamespaceExists(relay_ns_)) {
      return false;
    }
    relay_created_ = true;
  }
  const uint64_t chunk_bytes = options_.relay_chunk_bytes;
  const std::vector<SharedBytes> images =
      ChunkImages(key, share_bytes, chunk_bytes);
  const uint64_t total = images.size();
  for (const SharedBytes& chunk : images) {
    // Mirror of the store's billing: one request + processed bytes per
    // push. Pushes dispatch without blocking (the sharded service absorbs
    // them concurrently); the pop loop below pays the delivery wait.
    ++metrics->share_relay_requests;
    metrics->share_relay_bytes += static_cast<int64_t>(chunk->size());
    ++metrics->share_relay_chunks;
    const cloud::KvStore::PushOutcome pushed =
        kv.Push(relay_ns_, inbox, chunk);
    if (!pushed.status.ok()) return false;
  }
  uint64_t received = 0;
  const double give_up_at = cloud_->sim()->Now() + options_.max_wait_s;
  while (received < total) {
    if (cloud_->sim()->Now() >= give_up_at) return false;
    // Every pop call bills one request plus the bytes it drained — even an
    // empty long-poll bills its request, so the mirror counts the CALL.
    ++metrics->share_relay_requests;
    auto popped = kv.BlockingPopAll(relay_ns_, inbox, cloud::kMaxValuesPerPop,
                                    options_.pop_wait_s);
    if (!popped.ok() || !ctx->CheckDeadline().ok()) return false;
    for (const SharedBytes& chunk : *popped) {
      metrics->share_relay_bytes += static_cast<int64_t>(chunk->size());
      if (!IsChunk(chunk, images, key, received, share_bytes, chunk_bytes)) {
        return false;
      }
      ++received;
    }
  }
  return true;
}

}  // namespace fsd::core
