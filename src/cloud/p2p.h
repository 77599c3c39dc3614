// P2pFabric: simulated NAT-punched direct worker-to-worker links (the
// transport FMI builds on; FSD-Inf-Direct's data plane).
//
// Models what distinguishes direct TCP links from every managed service in
// this cloud:
//  - a one-time, per-unordered-pair connection setup (STUN exchange + hole
//    punch brokered by the coordinator — punching is mutual, so the pair
//    shares ONE physical link whichever side asks first), billed once per
//    established link
//  - deterministic, probabilistic punch FAILURE per pair (symmetric /
//    carrier-grade NATs): failed pairs must relay through a managed
//    service instead — the fabric never carries their data
//  - per-pair bandwidth variation (NAT path quality differs per pair)
//  - sub-millisecond sends with NO per-request service charge and NO
//    service-side rate cap: once punched, the link is kernel TCP, so only
//    bytes are billed (inter-AZ transfer class)
//  - delivery into per-key receiver inboxes (InboxLists, the same lists
//    under the KV store), so receive loops can long-poll without spinning;
//    a send hands the inbox a reference to the sender's immutable buffer,
//    so the fabric copies no bytes
#ifndef FSD_CLOUD_P2P_H_
#define FSD_CLOUD_P2P_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cloud/billing.h"
#include "cloud/inbox.h"
#include "cloud/latency.h"
#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "sim/simulation.h"

namespace fsd::cloud {

class P2pFabric {
 public:
  P2pFabric(sim::Simulation* sim, BillingLedger* billing,
            const LatencyConfig* latency, Rng rng)
      : sim_(sim), billing_(billing), latency_(latency), rng_(rng) {}

  /// Creates a punch-brokering session (one per run scope). Control-plane
  /// operation: not billed and not timed.
  Status CreateSession(const std::string& name);
  bool SessionExists(const std::string& name) const;

  /// Tears the session down: established links close (free) and pending
  /// blocking pops observe NotFound on their next wake.
  Status DeleteSession(const std::string& name);

  struct ConnectOutcome {
    Status status;
    /// Link established; false means the hole punch failed and the pair
    /// must relay through a managed service.
    bool punched = false;
    /// First Connect touching this unordered pair from either side (a
    /// fresh punch attempt was made; successful fresh punches bill one
    /// kP2pConnection). Connect(b, a) after Connect(a, b) is NOT fresh:
    /// the handshake already established the link both ways.
    bool fresh = false;
    /// Seconds until the link is usable (remaining handshake time; sends
    /// dispatched earlier deliver after the link is ready). Zero once the
    /// handshake completed, and always zero for failed punches.
    double setup_s = 0.0;
  };

  /// Ensures the pair's link exists (idempotent; cached after the first
  /// call from either side). Non-blocking: the punch handshake runs on
  /// async sockets, so the caller keeps working while it completes.
  /// Whether a pair punches at all is DETERMINISTIC in (session creation
  /// index on this fabric, {src, dst}) — symmetric, independent of call
  /// order AND of the session's name, so reruns on a fresh CloudEnv
  /// replay the same punch pattern even though per-run channel scopes
  /// embed a process-global run counter.
  ConnectOutcome Connect(const std::string& session, int32_t src,
                         int32_t dst);

  struct SendOutcome {
    Status status;
    /// Delay from call time until the value is poppable at the receiver
    /// (includes any remaining handshake time plus transfer).
    double latency = 0.0;
  };

  /// Ships `value` (non-null) over the punched link src->dst into the
  /// receiver inbox `key`. Non-blocking (callers dispatch on parallel
  /// lanes); bills kP2pByte only. FailedPrecondition if the pair never
  /// punched.
  SendOutcome Send(const std::string& session, int32_t src, int32_t dst,
                   const std::string& key, SharedBytes value);

  /// BLPOP-style pop of up to `max_values` (<= 64) values from inbox
  /// `key`, waiting up to `wait_s` while it is empty. Unbilled: the inbox
  /// is the receiving worker's own memory, not a service. No Hold beyond
  /// the wait — delivered values already paid their link latency. Returns
  /// the very buffers that were sent.
  Result<std::vector<SharedBytes>> BlockingPopAll(const std::string& session,
                                                  const std::string& key,
                                                  int max_values,
                                                  double wait_s);

 private:
  struct Link {
    bool punched = false;
    double ready_at = 0.0;  ///< handshake completion (virtual time)
    double bandwidth_bytes_per_s = 0.0;
  };
  struct Session {
    /// Per-session draw salt: the fabric-local creation index. Punch luck
    /// must not derive from the session NAME — scoped names embed a
    /// process-global run counter, which would make otherwise-identical
    /// runs draw different punch patterns within one process.
    uint64_t salt = 0;
    std::map<std::pair<int32_t, int32_t>, Link> links;
    std::shared_ptr<InboxLists> inboxes;
  };

  Session* Find(const std::string& name);

  sim::Simulation* sim_;
  BillingLedger* billing_;
  const LatencyConfig* latency_;
  Rng rng_;
  uint64_t next_session_salt_ = 0;
  std::map<std::string, Session> sessions_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_P2P_H_
