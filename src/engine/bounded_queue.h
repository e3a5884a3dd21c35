#ifndef VAQ_ENGINE_BOUNDED_QUEUE_H_
#define VAQ_ENGINE_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace vaq {

/// Bounded multi-producer/multi-consumer FIFO built on a mutex and two
/// condition variables. Simple by design. The hop through it is not free:
/// handing a task to a parked worker and waking the submitter costs a few
/// µs (a traced served replay measured a 6.5 µs queue-wait p50 against
/// 0.5 µs of work for a result-cache hit, which is why hits skip the queue,
/// and why `QueryEngine::Run` skips it while an execution slot is free;
/// DESIGN.md §3). The cost is the parking and wake-up, not the lock, so a
/// lock-free ring would not remove it.
///
/// The bound provides backpressure: producers block in `Push` when
/// consumers fall behind, so an open-ended stream of `Submit` calls cannot
/// grow memory without limit.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Outcome of a non-blocking `TryPush`.
  enum class PushResult {
    kPushed,
    kFull,    // At capacity — the caller sheds or retries, never blocks.
    kClosed,  // Queue closed — no further items will ever be accepted.
  };

  /// Blocks until there is room, then enqueues. Returns false (dropping
  /// `item`) if the queue was closed.
  bool Push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking enqueue: admission control for producers that must shed
  /// load rather than stall when consumers fall behind. Distinguishes a
  /// full queue (transient — back off and retry) from a closed one
  /// (permanent); `item` is dropped in both failure cases.
  PushResult TryPush(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (items_.size() >= capacity_) return PushResult::kFull;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return PushResult::kPushed;
  }

  /// Blocks until an item is available, then dequeues it. Returns nullopt
  /// once the queue is closed AND drained — consumers process everything
  /// enqueued before the close.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Wakes all blocked producers (which fail) and consumers (which drain
  /// the remaining items and then receive nullopt). Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace vaq

#endif  // VAQ_ENGINE_BOUNDED_QUEUE_H_
