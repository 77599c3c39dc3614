#include "cloud/p2p.h"

#include "common/check.h"
#include "common/rng.h"

namespace fsd::cloud {
namespace {

/// Deterministic uniform in [0, 1) for an unordered pair within a session:
/// Mix64 spreads the combined pair identity into uniform bits, so punch
/// outcomes and bandwidth factors look independent. Independent of call
/// order, so which pairs punch (and each pair's link quality) is a property
/// of the configuration, not of scheduling. Keyed by the session's
/// creation-index salt, never its name: scoped names embed a process-global
/// run counter, and hashing them would hand otherwise-identical runs
/// different punch patterns.
double PairUniform(uint64_t session_salt, int32_t src, int32_t dst,
                   uint64_t salt) {
  uint64_t h = Mix64(session_salt + 0x632d70756e6368ull);
  h = Mix64(h ^ salt);
  h = Mix64(h ^ ((static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
                 static_cast<uint32_t>(dst)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Canonical key for the one physical link a pair shares. A NAT hole punch
/// is mutual — the handshake establishes src<->dst in both directions — so
/// link state, the punch verdict and the connection charge must be keyed
/// by the unordered pair, never once per asking side.
std::pair<int32_t, int32_t> LinkKey(int32_t a, int32_t b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

Status P2pFabric::CreateSession(const std::string& name) {
  if (sessions_.contains(name)) {
    return Status::AlreadyExists("p2p session exists: " + name);
  }
  Session session;
  session.salt = next_session_salt_++;
  session.inboxes =
      std::make_shared<InboxLists>(sim_, "p2p session deleted: " + name);
  sessions_.emplace(name, std::move(session));
  return Status::OK();
}

bool P2pFabric::SessionExists(const std::string& name) const {
  return sessions_.contains(name);
}

Status P2pFabric::DeleteSession(const std::string& name) {
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status::NotFound("no such p2p session: " + name);
  }
  // Wake any blocked poppers; they observe NotFound.
  it->second.inboxes->Close();
  sessions_.erase(it);
  return Status::OK();
}

P2pFabric::Session* P2pFabric::Find(const std::string& name) {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

P2pFabric::ConnectOutcome P2pFabric::Connect(const std::string& session,
                                             int32_t src, int32_t dst) {
  ConnectOutcome outcome;
  Session* s = Find(session);
  if (s == nullptr) {
    outcome.status = Status::NotFound("no such p2p session: " + session);
    return outcome;
  }
  const std::pair<int32_t, int32_t> pair = LinkKey(src, dst);
  auto [it, fresh] = s->links.try_emplace(pair);
  Link& link = it->second;
  if (fresh) {
    link.punched =
        PairUniform(s->salt, pair.first, pair.second, 0x70756e6368ull) >=
        latency_->p2p_punch_failure_rate;
    if (link.punched) {
      const double spread = latency_->p2p_bandwidth_spread;
      const double factor =
          1.0 + spread * (PairUniform(s->salt, pair.first, pair.second,
                                      0x62616e64ull) -
                          0.5);
      link.bandwidth_bytes_per_s =
          latency_->p2p_bandwidth_bytes_per_s * factor;
      link.ready_at = sim_->Now() + latency_->p2p_setup.Sample(&rng_);
      // The established link is the billed resource: one connection
      // charge at punch time, then bytes only. Failed punches bill
      // nothing here — their penalty is every message paying the managed
      // relay's request pricing and latency instead.
      billing_->Record(BillingDimension::kP2pConnection, 1);
    }
  }
  outcome.status = Status::OK();
  outcome.punched = link.punched;
  outcome.fresh = fresh;
  outcome.setup_s =
      link.ready_at > sim_->Now() ? link.ready_at - sim_->Now() : 0.0;
  return outcome;
}

P2pFabric::SendOutcome P2pFabric::Send(const std::string& session,
                                       int32_t src, int32_t dst,
                                       const std::string& key,
                                       SharedBytes value) {
  FSD_CHECK(value != nullptr);
  SendOutcome outcome;
  Session* s = Find(session);
  if (s == nullptr) {
    outcome.status = Status::NotFound("no such p2p session: " + session);
    return outcome;
  }
  auto it = s->links.find(LinkKey(src, dst));
  if (it == s->links.end() || !it->second.punched) {
    outcome.status = Status::FailedPrecondition(
        "no punched p2p link for pair; use the relay");
    return outcome;
  }
  const Link& link = it->second;
  billing_->Record(BillingDimension::kP2pByte,
                   static_cast<double>(value->size()));
  // Sends dispatched while the handshake is still in flight queue behind
  // it; afterwards the message pays the link's base latency plus transfer
  // at the pair's punched bandwidth.
  const double handshake_wait =
      link.ready_at > sim_->Now() ? link.ready_at - sim_->Now() : 0.0;
  const double transfer =
      static_cast<double>(value->size()) / link.bandwidth_bytes_per_s;
  outcome.latency =
      handshake_wait + latency_->p2p_send.Sample(&rng_) + transfer;

  s->inboxes->Push(key, std::move(value), outcome.latency);
  outcome.status = Status::OK();
  return outcome;
}

Result<std::vector<SharedBytes>> P2pFabric::BlockingPopAll(
    const std::string& session, const std::string& key, int max_values,
    double wait_s) {
  FSD_RETURN_IF_ERROR(CheckPopCount(max_values));
  Session* s = Find(session);
  if (s == nullptr) {
    return Status::NotFound("no such p2p session: " + session);
  }
  return s->inboxes->Pop(key, max_values, wait_s);
}

}  // namespace fsd::cloud
