#include "serve/update_queue.h"

#include <algorithm>
#include <utility>

namespace cssidx::serve {

UpdateQueue::UpdateQueue(size_t capacity, Admission admission)
    : capacity_(capacity == 0 ? 1 : capacity), admission_(admission) {}

UpdateQueue::PushResult UpdateQueue::Push(QueuedUpdate update) {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return PushResult::kClosed;
  if (queue_.size() >= capacity_) {
    if (admission_ == Admission::kReject) {
      ++stats_.rejected_batches;
      return PushResult::kRejected;
    }
    ++stats_.blocked_pushes;
    not_full_.wait(lock,
                   [&] { return closed_ || queue_.size() < capacity_; });
    if (closed_) return PushResult::kClosed;
  }
  ++stats_.enqueued_batches;
  std::visit(
      [&](const auto& batch) {
        if constexpr (requires { batch.inserts; }) {
          stats_.enqueued_keys += batch.inserts.size() + batch.deletes.size();
        }
      },
      update.payload);
  queue_.push_back(std::move(update));
  stats_.depth_high_water = std::max(stats_.depth_high_water, queue_.size());
  not_empty_.notify_one();
  return PushResult::kOk;
}

bool UpdateQueue::DrainAll(std::vector<QueuedUpdate>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // closed and nothing left
  while (!queue_.empty()) {
    out->push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  // Every waiting producer can make progress now, not just one.
  not_full_.notify_all();
  return true;
}

void UpdateQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  not_full_.notify_all();
  not_empty_.notify_all();
}

QueueStats UpdateQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cssidx::serve
