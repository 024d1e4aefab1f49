// Bounded multi-producer / single-consumer event queue.
//
// The ingest front-end (src/ingest/) shards arriving reports across worker
// threads; each shard owns one of these queues. The queue is the
// backpressure boundary of the service: Push() blocks the producer while
// the shard is `capacity` events behind (so a slow worker throttles its
// producers instead of growing memory without bound), TryPush() refuses
// instead of blocking (the service probes with it to count stalls), and
// the single consumer drains events in arrival order with PopBatch() —
// batching is what lets the worker coalesce co-arriving events for the
// same tenant into full rounds.
//
// Storage is a fixed ring over a vector allocated once at construction, so
// a steady-state Push/PopBatch cycle performs zero heap allocations (for
// trivially copyable T). Close() wakes every blocked producer and the
// consumer; the consumer drains whatever is still queued before PopBatch
// reports exhaustion.
#ifndef ITRIM_COMMON_BOUNDED_QUEUE_H_
#define ITRIM_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace itrim {

/// \brief Fixed-capacity blocking FIFO: many producers, one consumer.
template <typename T>
class BoundedMpscQueue {
 public:
  /// Creates a queue holding at most `capacity` items (clamped to >= 1).
  explicit BoundedMpscQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        ring_(capacity == 0 ? 1 : capacity) {}

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  /// \brief Enqueues `item`, blocking while the queue is full. Returns
  /// false iff the queue was closed (the item is then dropped).
  bool Push(const T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [this] { return closed_ || size_ < capacity_; });
    if (closed_) return false;
    ring_[(head_ + size_) % capacity_] = item;
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// \brief Enqueues `item` only if space is free right now. Returns false
  /// when the queue is full or closed.
  bool TryPush(const T& item) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_ || size_ >= capacity_) return false;
    ring_[(head_ + size_) % capacity_] = item;
    ++size_;
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// \brief Appends up to `max_items` queued items to `*out` in FIFO order,
  /// blocking while the queue is open and empty. Returns the number of
  /// items delivered; 0 means the queue is closed *and* fully drained (the
  /// consumer's termination signal).
  size_t PopBatch(std::vector<T>* out, size_t max_items) {
    if (max_items == 0) return 0;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || size_ > 0; });
    size_t taken = size_ < max_items ? size_ : max_items;
    for (size_t i = 0; i < taken; ++i) {
      out->push_back(ring_[head_]);
      head_ = (head_ + 1) % capacity_;
    }
    size_ -= taken;
    lock.unlock();
    // Everything between empty and full may be waiting on the producer
    // side; a batched pop can free many slots at once.
    if (taken > 0) not_full_.notify_all();
    return taken;
  }

  /// \brief Closes the queue: producers are refused (and unblocked) from
  /// now on; the consumer still drains what is queued. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t capacity() const { return capacity_; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;
  size_t head_ = 0;  ///< index of the oldest queued item
  size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace itrim

#endif  // ITRIM_COMMON_BOUNDED_QUEUE_H_
