// ShareDistributor: λScale-style peer-to-peer model-share distribution
// (arXiv:2502.09922 §4 "fast model scaling").
//
// A flash crowd turns one model family's cold start into P concurrent
// object-storage reads of the SAME bytes: every cold worker instance pulls
// its share through the storage front door at GET pricing and storage
// latency. λScale's observation is that after the FIRST read the bytes are
// already inside the fleet — in a warm instance's memory — and moving them
// instance-to-instance over the NAT-punched fabric is both faster and
// cheaper than another storage round trip.
//
// The distributor sits between LoadShareOnMiss (worker.cc) — the one miss
// path of both worker loads and pre-warm tasks — and the per-instance
// PartitionCache:
//
//  - a REGISTRY maps (family, partition_id, version) to the warm instances
//    whose caches hold that share ("holders"). Holders are validated lazily
//    against the live cache (weak reference + Contains), so instances
//    reclaimed at keep-alive expiry fall out of the registry on the next
//    lookup instead of serving ghosts.
//  - a cold requester whose cache missed calls Acquire. With a warm holder
//    available the share streams over the P2P fabric in chunks (billed per
//    connection + byte); pairs whose hole punch failed fall back to a KV
//    relay namespace (billed per request + processed byte). The delivered
//    chunks are byte-identical across both transports.
//  - MULTICAST: concurrent requesters of one share form a distribution
//    tree. The first requester (no holder, nothing in flight) is sent to
//    storage; everyone else waits and is released against the growing
//    holder set according to the configured CollectiveTopology —
//    through-root streams every requester from the first holder (star),
//    binomial admits as many concurrent transfers as there are holders
//    (each completed transfer doubles the serving capacity: ceil(log2 P)
//    generations), ring admits one at a time chained off the most recent
//    holder. P cold instances therefore cost ~1 storage read plus P-1
//    peer transfers.
//  - every failure path (holder died, punch + relay both failed, waiters
//    timed out) degrades to the storage read the caller was going to do
//    anyway; the distributor can delay a load, never lose one.
//
// Determinism: transfers carry deterministically generated chunk payloads
// (a keyed byte pattern of the share's real size — the actual weights live
// in the shared in-memory model, as with the phantom storage objects), so
// byte-identity of relay vs. punched delivery is checkable and replays are
// stable. Outputs never depend on the distributor: it changes WHERE bytes
// come from, never what workers compute.
//
// Chunk images: a flash crowd moves the same few shares again and again,
// so the distributor encodes each distinct chunk once, on first use, into
// an immutable wire image (SharedBytes) and keeps it until Teardown. Every
// transfer of that chunk sends the same image, and the fabric and the
// relay carry it by reference: no transfer re-encodes or copies a chunk.
// The receiver accepts a chunk iff it is the expected image (immutable, so
// the same buffer is the same bytes) or a distinct buffer that passes
// ShareChunkMatches. The images of a share cost about twice its size (the
// fabric and the relay cut it into different chunks).
//
// Billing mirrors: every dollar the transfer path bills
// (kP2pConnection/kP2pByte, kv requests/processed bytes) is counted in the
// requester's ModelLoadMetrics share_* mirrors, so PredictFromMetrics
// reconciles with the ledger exactly (see ShareTransferCost).
//
// Lifetime: one distributor per serving runtime; Teardown (or destruction)
// deletes the fabric session and the lazily created relay namespace. The
// relay namespace's node-seconds bill lands at teardown, after the serving
// report is drained (see docs/COST_MODEL.md).
#ifndef FSD_CORE_SHARE_DISTRIBUTOR_H_
#define FSD_CORE_SHARE_DISTRIBUTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cloud/cloud.h"
#include "core/fsd_config.h"
#include "core/metrics.h"
#include "core/partition_cache.h"

namespace fsd::core {

class ShareDistributor {
 public:
  struct Options {
    /// Namespaces the fabric session + relay namespace (one serving
    /// runtime's distributor must never cross-deliver into another's).
    std::string scope = "shares";
    /// Multicast shape for concurrent requesters of one share (see file
    /// comment). Binomial is the λScale default.
    CollectiveTopology topology = CollectiveTopology::kBinomialTree;
    /// Chunk size on the punched fabric (TCP stream; large chunks amortize
    /// the per-send dispatch latency).
    uint64_t peer_chunk_bytes = 4ull * 1024 * 1024;
    /// Chunk size on the KV relay (value-capped like the KV channel).
    uint64_t relay_chunk_bytes = 128ull * 1024;
    /// One blocking-pop slice while draining a transfer's chunks.
    double pop_wait_s = 0.5;
    /// Cap on waiting for an in-flight load to produce a holder (and on
    /// draining a single transfer) before falling back to storage.
    double max_wait_s = 30.0;
  };

  /// Creates the punch-brokering fabric session eagerly (control-plane,
  /// free); the relay namespace is created lazily on first punch failure.
  ShareDistributor(cloud::CloudEnv* cloud, Options options);
  ~ShareDistributor();

  ShareDistributor(const ShareDistributor&) = delete;
  ShareDistributor& operator=(const ShareDistributor&) = delete;

  /// Where Acquire says the share must come from.
  enum class Source {
    /// Delivered peer-to-peer: the share is resident in the caller's
    /// instance cache (inserted, registry updated) and the transfer's
    /// billing is mirrored into `metrics`. The caller skips its storage
    /// read AND the deserialization charge — the share moved
    /// memory-to-memory in deserialized form.
    kPeer,
    /// No (surviving) holder: the caller must read from storage. Acquire
    /// registered the caller as the share's pending storage reader —
    /// concurrent requesters are now waiting on it — so the caller MUST
    /// follow up with Publish (read succeeded) or Abandon (read failed).
    kStorage,
  };

  /// Resolves one cold share load for LoadShareOnMiss. Blocks (virtual
  /// time) while a transfer streams or while waiting out an in-flight
  /// load; every internal failure degrades to kStorage. `metrics` receives
  /// the share_* counter mirrors, plus share_loads_peer and the cache
  /// insert counters on a peer delivery; no other field is touched.
  /// `mark_prewarmed` tags a peer-delivered cache entry as
  /// planted-by-pre-warm so the first real hit is attributed to the
  /// pre-warm loop, not plain warm reuse.
  Source Acquire(cloud::FaasContext* ctx, const FsdOptions& options,
                 const std::string& family, int32_t partition_id,
                 uint64_t share_bytes, ModelLoadMetrics* metrics,
                 bool mark_prewarmed = false);

  /// Registers the calling instance as a holder after a successful storage
  /// read + cache insert, and releases waiters. A caller whose insert was
  /// rejected (oversize) must still call this: it resolves the pending
  /// read, and the registry simply gains no holder (the instance cannot
  /// serve what it could not cache).
  void Publish(cloud::FaasContext* ctx, const FsdOptions& options,
               const std::string& family, int32_t partition_id);

  /// Resolves a pending storage read that failed (deadline, abort) without
  /// registering a holder, so waiters stop waiting for it.
  void Abandon(const std::string& family, int32_t partition_id,
               uint64_t version);

  /// Deletes the fabric session and relay namespace (billing the relay's
  /// node-seconds) and drops the chunk images. Idempotent; called by the
  /// destructor.
  void Teardown();

  /// Surviving holders for a share after pruning dead instances (tests).
  int64_t HolderCount(const std::string& family, int32_t partition_id,
                      uint64_t version);

  /// The deterministic wire encoding of transfer chunk `seq` of `total`
  /// for a share: a header (seq, total, payload size) plus a keyed byte
  /// pattern of `payload_bytes` bytes. Identical on fabric and relay. A
  /// distributor calls it once per distinct chunk, to build the wire image
  /// every transfer of that chunk sends.
  static Bytes EncodeShareChunk(const std::string& family,
                                int32_t partition_id, uint64_t version,
                                uint64_t seq, uint64_t total,
                                uint64_t payload_bytes);

  /// True iff `chunk` is byte-identical to EncodeShareChunk with the same
  /// arguments. Checks the size and header, then regenerates the pattern
  /// word by word and compares it in place, without building the expected
  /// copy. Both receive loops run it on a delivered chunk that is not the
  /// expected image itself.
  static bool ShareChunkMatches(const Bytes& chunk, const std::string& family,
                                int32_t partition_id, uint64_t version,
                                uint64_t seq, uint64_t total,
                                uint64_t payload_bytes);

  /// Chunk count for a share of `share_bytes` at `chunk_bytes` granularity
  /// (>= 1; the sizing shared by the transfer loop and the cost docs).
  static uint64_t ChunkCount(uint64_t share_bytes, uint64_t chunk_bytes);

  const Options& options() const { return options_; }
  const std::string& session() const { return session_; }
  const std::string& relay_namespace() const { return relay_ns_; }

 private:
  struct ShareKey {
    std::string family;
    int32_t partition_id = 0;
    uint64_t version = 0;
    bool operator<(const ShareKey& o) const {
      if (family != o.family) return family < o.family;
      if (partition_id != o.partition_id) return partition_id < o.partition_id;
      return version < o.version;
    }
  };
  /// EncodeShareChunk's arguments: one key per distinct wire image.
  struct ChunkKey {
    ShareKey share;
    uint64_t seq = 0;
    uint64_t total = 0;
    uint64_t payload_bytes = 0;
    bool operator<(const ChunkKey& o) const {
      return std::tie(share, seq, total, payload_bytes) <
             std::tie(o.share, o.seq, o.total, o.payload_bytes);
    }
  };
  struct Holder {
    uint64_t instance_id = 0;
    int32_t node = 0;  ///< fabric endpoint id
    std::weak_ptr<PartitionCache> cache;
  };
  struct Entry {
    std::vector<Holder> holders;
    int32_t transfers_in_progress = 0;
    int32_t storage_readers = 0;
    uint64_t next_pick = 0;  ///< round-robin cursor (binomial)
    /// Fired (and re-armed) on every state change; waiters re-evaluate.
    std::shared_ptr<sim::SimSignal> change;
  };

  /// Stable fabric endpoint id for a FaaS execution environment.
  int32_t NodeFor(uint64_t instance_id);
  /// Drops holders whose instance died or whose cache no longer holds the
  /// share (evicted, version bumped).
  void Prune(const ShareKey& key, Entry* entry);
  /// Wakes every waiter of `entry` and re-arms the signal.
  void FireChange(Entry* entry);
  /// Whether the topology admits one more concurrent transfer.
  bool AdmitsTransfer(const Entry& entry) const;
  /// The holder the topology streams the next transfer from. Skips
  /// `self_instance`; nullptr when no other holder survives.
  const Holder* PickSource(Entry* entry, uint64_t self_instance);

  /// Streams the share from `src_node` to the calling instance; true on a
  /// verified, byte-identical delivery. Mirrors billing into `metrics`.
  bool Transfer(cloud::FaasContext* ctx, const ShareKey& key,
                uint64_t share_bytes, int32_t src_node,
                ModelLoadMetrics* metrics);
  bool TransferPunched(cloud::FaasContext* ctx, const ShareKey& key,
                       uint64_t share_bytes, int32_t src_node,
                       int32_t dst_node, const std::string& inbox,
                       ModelLoadMetrics* metrics);
  bool TransferRelay(cloud::FaasContext* ctx, const ShareKey& key,
                     uint64_t share_bytes, const std::string& inbox,
                     ModelLoadMetrics* metrics);
  /// The wire images of the share cut into `chunk_bytes` chunks, in seq
  /// order. Each image is encoded on its first use and then shared by
  /// every transfer that sends it.
  std::vector<SharedBytes> ChunkImages(const ShareKey& key,
                                       uint64_t share_bytes,
                                       uint64_t chunk_bytes);
  /// True iff delivered `chunk` is chunk `seq` of `images` (the share cut
  /// into `chunk_bytes` chunks): the image itself, or a distinct buffer
  /// that passes ShareChunkMatches.
  static bool IsChunk(const SharedBytes& chunk,
                      const std::vector<SharedBytes>& images,
                      const ShareKey& key, uint64_t seq,
                      uint64_t share_bytes, uint64_t chunk_bytes);

  cloud::CloudEnv* cloud_;
  Options options_;
  std::string session_;
  std::string relay_ns_;
  bool relay_created_ = false;
  bool torn_down_ = false;
  int32_t next_node_ = 0;
  uint64_t next_transfer_ = 0;
  std::map<uint64_t, int32_t> nodes_;  ///< instance id -> fabric endpoint
  std::map<ShareKey, Entry> entries_;
  /// Wire images sent so far, alive until Teardown. Immutable, so the
  /// fabric and the relay carry them by reference.
  std::map<ChunkKey, SharedBytes> images_;
};

}  // namespace fsd::core

#endif  // FSD_CORE_SHARE_DISTRIBUTOR_H_
