#include "cloud/inbox.h"

#include "common/check.h"

namespace fsd::cloud {

Status CheckPopCount(int max_values) {
  if (max_values < 1 || max_values > kMaxValuesPerPop) {
    return Status::InvalidArgument("max_values must be in [1, 64]");
  }
  return Status::OK();
}

void InboxLists::Push(const std::string& key, SharedBytes value,
                      double delay) {
  FSD_CHECK(value != nullptr);
  lists_[key].values.push_back(Value{std::move(value), sim_->Now() + delay});
  sim_->ScheduleCallback(
      delay, [inbox = std::weak_ptr<InboxLists>(shared_from_this()), key]() {
        if (std::shared_ptr<InboxLists> self = inbox.lock()) {
          self->WakeWaiters(key);
        }
      });
}

void InboxLists::WakeWaiters(const std::string& key) {
  auto it = lists_.find(key);
  if (it == lists_.end()) return;
  std::shared_ptr<sim::SimSignal>& signal = it->second.arrival_signal;
  if (signal == nullptr || !signal->has_waiters()) return;
  signal->Fire();
  signal = sim_->MakeSignal();
}

std::vector<SharedBytes> InboxLists::TakeVisible(const std::string& key,
                                                 int max_values) {
  std::vector<SharedBytes> out;
  auto it = lists_.find(key);
  if (it == lists_.end()) return out;
  const double now = sim_->Now();
  std::deque<Value>& values = it->second.values;
  while (!values.empty() && static_cast<int>(out.size()) < max_values &&
         values.front().visible_at <= now) {
    out.push_back(std::move(values.front().body));
    values.pop_front();
  }
  // A fully drained, unwatched list is dead weight: phases use fresh keys,
  // so without this the map grows with every phase of the run. (Pending
  // visibility callbacks keep values non-empty, and a waiter's signal lives
  // in the list, so neither can be under an erased one.)
  if (values.empty() && (it->second.arrival_signal == nullptr ||
                         !it->second.arrival_signal->has_waiters())) {
    lists_.erase(it);
  }
  return out;
}

Result<std::vector<SharedBytes>> InboxLists::Pop(const std::string& key,
                                                 int max_values,
                                                 double wait_s) {
  FSD_RETURN_IF_ERROR(CheckPopCount(max_values));
  if (closed_) return Status::NotFound(closed_message_);
  // The owner may drop its reference while this popper sleeps.
  const std::shared_ptr<InboxLists> self = shared_from_this();
  std::vector<SharedBytes> got = TakeVisible(key, max_values);
  const double deadline = sim_->Now() + wait_s;
  while (got.empty()) {
    const double remaining = deadline - sim_->Now();
    if (remaining <= 0.0) break;
    // Popper-allocated: the unobserved push (the common one on the hot
    // path) never pays for a signal.
    std::shared_ptr<sim::SimSignal>& arrival = lists_[key].arrival_signal;
    if (arrival == nullptr) arrival = sim_->MakeSignal();
    const std::shared_ptr<sim::SimSignal> signal = arrival;
    if (!sim_->WaitSignal(signal.get(), remaining)) break;
    if (closed_) return Status::NotFound(closed_message_);
    got = TakeVisible(key, max_values);
  }
  return got;
}

void InboxLists::Close() {
  closed_ = true;
  for (auto& [key, list] : lists_) {
    if (list.arrival_signal != nullptr) list.arrival_signal->Fire();
  }
  lists_.clear();
}

}  // namespace fsd::cloud
