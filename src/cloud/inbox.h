// InboxLists: the delayed-visibility list inboxes under the KV store's
// lists and the P2P fabric's receiver inboxes.
//
// A pushed value joins the tail of its key's list and becomes poppable
// `delay` seconds later. Pops take the visible values at the head in push
// order, so a visible value queued behind one still in flight waits for it.
// Values are shared immutable buffers: the list holds a reference and a
// pop hands back the very buffer that was pushed, so a sender that already
// holds its bytes (a cached wire image) copies nothing, and a popped value
// stays valid after Close().
// Long-pollers block on a per-key arrival signal that the first popper
// allocates; a push nobody waits for skips the fire/re-arm cycle entirely.
// The owning service keeps what is its own (admission delays, billing, op
// latency) and holds the inbox by shared_ptr: Close() at teardown wakes
// every waiter, a woken popper keeps the inbox alive and sees NotFound, and
// a visibility callback that lands after teardown does nothing.
#ifndef FSD_CLOUD_INBOX_H_
#define FSD_CLOUD_INBOX_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "sim/simulation.h"

namespace fsd::cloud {

/// Maximum values returned by one blocking pop (bounds per-call work, like
/// a pipelined LPOP with COUNT).
constexpr int kMaxValuesPerPop = 64;

/// InvalidArgument unless `max_values` is in [1, kMaxValuesPerPop].
Status CheckPopCount(int max_values);

/// Must be owned by a shared_ptr (std::make_shared): pushes and pops take
/// references to it.
class InboxLists : public std::enable_shared_from_this<InboxLists> {
 public:
  /// `closed_message` is the NotFound message pops return after Close().
  InboxLists(sim::Simulation* sim, std::string closed_message)
      : sim_(sim), closed_message_(std::move(closed_message)) {}

  InboxLists(const InboxLists&) = delete;
  InboxLists& operator=(const InboxLists&) = delete;

  /// Appends `value` (non-null) to list `key`; it becomes poppable `delay`
  /// seconds from now.
  void Push(const std::string& key, SharedBytes value, double delay);

  /// Pops up to `max_values` (<= kMaxValuesPerPop) visible values from the
  /// head of list `key`, waiting up to `wait_s` while none is visible (0
  /// returns at once). Process context only. Returns a possibly-empty
  /// vector, or NotFound once the inbox is closed.
  Result<std::vector<SharedBytes>> Pop(const std::string& key,
                                       int max_values, double wait_s);

  /// Wakes every waiter and drops every value; later pops return NotFound.
  void Close();

 private:
  struct Value {
    SharedBytes body;
    double visible_at = 0.0;
  };
  struct List {
    std::deque<Value> values;
    std::shared_ptr<sim::SimSignal> arrival_signal;
  };

  /// Moves out up to `max_values` visible values from the head of `key`.
  std::vector<SharedBytes> TakeVisible(const std::string& key,
                                       int max_values);
  /// Visibility callback: wakes the list's waiters and re-arms its signal.
  void WakeWaiters(const std::string& key);

  sim::Simulation* sim_;
  std::string closed_message_;
  bool closed_ = false;
  std::map<std::string, List> lists_;
};

}  // namespace fsd::cloud

#endif  // FSD_CLOUD_INBOX_H_
