// Bounded hand-off queue between streaming pipeline stages.
//
// The streaming pipeline is a chain of single-purpose threads (miner →
// follower → load generator); the follower hands fresh addresses to the
// generator across one of these. (The generator's hand-off to the engine
// needs no queue here: the engine's max_queue bounds it and sheds, and
// completions come back through a callback.) The bound is load-bearing: a
// full queue *blocks the producer*, which is how "follower behind the
// chain" becomes measurable ingest lag instead of unbounded memory growth.
// close() provides the graceful-drain handshake: producers fail fast,
// consumers drain what is queued, then see end-of-stream (nullopt).
//
// Mutex + two condition variables rather than a lock-free ring: hand-offs
// here happen at request rate (thousands/s), not at per-opcode rate, and
// the blocking semantics *are* the feature.
//
// Because blocking is the backpressure mechanism, it is also worth seeing:
// when tracing is enabled, a push or pop that *actually* waits records a
// "queue.push_wait:<name>" / "queue.pop_wait:<name>" span covering the
// wait — the uncontended fast path stays trace-silent.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace phishinghook::stream {

template <typename T>
class BoundedQueue {
 public:
  /// `name`, when given, tags this queue's blocking-wait spans (the
  /// pointer is kept, not copied — pass a string literal).
  explicit BoundedQueue(std::size_t capacity, const char* name = nullptr)
      : capacity_(capacity), name_(name) {
    if (capacity == 0) {
      throw InvalidArgument("BoundedQueue capacity must be > 0");
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full; returns false (dropping `value`) once closed.
  bool push(T value) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      obs::ScopedSpan wait_span("queue.push_wait", name_);
      space_cv_.wait(lock,
                     [this] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    pushed_ += 1;
    lock.unlock();
    items_cv_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed.
  bool try_push(T value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
      pushed_ += 1;
    }
    items_cv_.notify_one();
    return true;
  }

  /// Blocks while empty; nullopt means closed *and* drained (end of
  /// stream — queued items are always delivered before the close shows).
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.empty()) {
      obs::ScopedSpan wait_span("queue.pop_wait", name_);
      items_cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
    }
    if (items_.empty()) return std::nullopt;
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    popped_ += 1;
    lock.unlock();
    space_cv_.notify_one();
    return value;
  }

  /// Non-blocking pop; nullopt when currently empty (closed or not).
  std::optional<T> try_pop() {
    std::optional<T> value;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (items_.empty()) return std::nullopt;
      value.emplace(std::move(items_.front()));
      items_.pop_front();
      popped_ += 1;
    }
    space_cv_.notify_one();
    return value;
  }

  /// Stops admissions and wakes every waiter. Idempotent. Items already
  /// queued stay poppable — close() + drain is the end-of-stream handshake.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    items_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  std::size_t capacity() const { return capacity_; }

  std::uint64_t total_pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }

  std::uint64_t total_popped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return popped_;
  }

 private:
  const std::size_t capacity_;
  const char* name_;  ///< span detail tag; may be nullptr
  mutable std::mutex mutex_;
  std::condition_variable items_cv_;  ///< signaled on push/close
  std::condition_variable space_cv_;  ///< signaled on pop/close
  std::deque<T> items_;
  bool closed_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t popped_ = 0;
};

}  // namespace phishinghook::stream
