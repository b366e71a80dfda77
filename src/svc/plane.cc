#include "svc/plane.h"

namespace ftss::svc {

void RequestPlane::submit(Command cmd) {
  queue_.push_back(std::move(cmd));
  ++submitted_;
}

Value RequestPlane::proposal(std::int64_t instance) {
  auto it = proposals_.find(instance);
  if (it != proposals_.end()) return it->second;

  // Outside the pipeline window (or nothing queued): the empty heartbeat
  // batch keeps the log advancing without consuming client commands.
  const bool window_open = instance <= applied_floor_ + pipeline_depth_;
  if (!window_open || queue_.empty()) {
    if (!window_open && !queue_.empty()) ++proposals_empty_backpressure_;
    proposals_.emplace(instance, Value());
    return Value();
  }

  std::vector<Command> commands;
  while (!queue_.empty() && static_cast<int>(commands.size()) < batch_) {
    commands.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  Value batch = encode_batch(commands);
  proposals_.emplace(instance, batch);
  open_.emplace(instance, std::move(commands));
  return batch;
}

void RequestPlane::on_decided(std::int64_t instance) { open_.erase(instance); }

std::int64_t RequestPlane::reclaim(std::int64_t max_decided, std::int64_t gap) {
  std::int64_t requeued = 0;
  // Walk stale assignments oldest-first so re-queued commands keep their
  // original relative order at the front of the queue.
  std::vector<Command> rescued;
  auto stale_end = open_.begin();
  for (; stale_end != open_.end() && stale_end->first + gap <= max_decided;
       ++stale_end) {
    for (Command& cmd : stale_end->second) {
      rescued.push_back(std::move(cmd));
      ++requeued;
    }
  }
  open_.erase(open_.begin(), stale_end);
  for (auto it = rescued.rbegin(); it != rescued.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  retransmitted_ += requeued;
  return requeued;
}

const Value* RequestPlane::find_proposal(std::int64_t instance) const {
  auto it = proposals_.find(instance);
  return it == proposals_.end() ? nullptr : &it->second;
}

}  // namespace ftss::svc
