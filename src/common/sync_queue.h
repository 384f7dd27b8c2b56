// Thread-safe queues used by the real (threaded) runtime: a blocking
// priority queue for ready/ack cluster traffic (Algorithm 3 keeps both as
// priority queues ordered by step) and a plain blocking FIFO. Internal
// state is guarded by an annotated common::Mutex, so -Wthread-safety
// checks the discipline and AIMETRO_LOCK_DEBUG builds order-check every
// acquisition.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aimetro {

/// Portable spin-wait hint: tells the core a spin loop is running (x86
/// `pause`, ARM `yield`), or yields the thread where neither exists.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Blocking min-priority queue. Smaller Priority values pop first; FIFO
/// within equal priority (stable via sequence numbers).
template <typename T, typename Priority = int>
class SyncPriorityQueue {
 public:
  /// Refused (returning false, `value` dropped) once close() has run —
  /// checked under the lock close() takes, so an accepted element is
  /// always seen by the consumers draining the closed queue.
  bool push(Priority priority, T value) {
    bool wake = true;
    {
      common::MutexLock lock(mutex_);
      if (closed_) return false;
      heap_.push(Entry{priority, seq_++, std::move(value)});
      front_hint_.store(heap_.top().priority, std::memory_order_relaxed);
      // A spinning consumer takes this element without a futex wake;
      // clearing the flag hands it over, so the next push wakes a sleeper.
      if (spinning_.load(std::memory_order_relaxed)) {
        spinning_.store(false, std::memory_order_relaxed);
        wake = false;
      }
    }
    if (wake) cv_.notify_one();
    return true;
  }

  /// Blocks until an element is available or close() is called.
  /// Returns nullopt only after close() with an empty queue.
  std::optional<T> pop() {
    common::MutexLock lock(mutex_);
    return wait_and_take_locked();
  }

  /// pop(), but an idle consumer first spins for up to `spin` before
  /// parking. At most one consumer spins at a time (the others park
  /// straight away); a push that finds it spinning hands its element over
  /// and skips the condition-variable wake, so a short gap between
  /// elements costs neither side a sleep/wake round trip.
  std::optional<T> pop(std::chrono::nanoseconds spin) {
    {
      common::MutexLock lock(mutex_);
      if (!heap_.empty() || closed_ ||
          spinning_.load(std::memory_order_relaxed)) {
        return wait_and_take_locked();
      }
      spinning_.store(true, std::memory_order_relaxed);
    }
    const auto deadline = std::chrono::steady_clock::now() + spin;
    for (std::uint32_t i = 1; spinning_.load(std::memory_order_relaxed); ++i) {
      if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
      cpu_relax();
    }
    common::MutexLock lock(mutex_);
    spinning_.store(false, std::memory_order_relaxed);  // timed out: resign
    return wait_and_take_locked();
  }

  /// Non-blocking pop.
  std::optional<T> try_pop() {
    common::MutexLock lock(mutex_);
    if (heap_.empty()) return std::nullopt;
    return take_locked();
  }

  /// Lock-free hint: the smallest queued priority, or
  /// numeric_limits<Priority>::max() when the queue looks empty. Relaxed
  /// and possibly stale — for scheduling heuristics only.
  Priority front_priority_hint() const {
    return front_hint_.load(std::memory_order_relaxed);
  }

  std::size_t size() const {
    common::MutexLock lock(mutex_);
    return heap_.size();
  }

  bool closed() const {
    common::MutexLock lock(mutex_);
    return closed_;
  }

  /// Wake all waiters; subsequent pops drain the queue then return nullopt.
  void close() {
    {
      common::MutexLock lock(mutex_);
      closed_ = true;
      spinning_.store(false, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

 private:
  std::optional<T> wait_and_take_locked() REQUIRES(mutex_) {
    while (heap_.empty() && !closed_) cv_.wait(mutex_);
    if (heap_.empty()) return std::nullopt;
    return take_locked();
  }

  T take_locked() REQUIRES(mutex_) {
    T out = std::move(const_cast<Entry&>(heap_.top()).value);
    heap_.pop();
    front_hint_.store(heap_.empty() ? std::numeric_limits<Priority>::max()
                                    : heap_.top().priority,
                      std::memory_order_relaxed);
    return out;
  }

  struct Entry {
    Priority priority;
    std::uint64_t seq;
    T value;
    bool operator>(const Entry& other) const {
      if (priority != other.priority) return priority > other.priority;
      return seq > other.seq;
    }
  };

  mutable common::Mutex mutex_{"sync_priority_queue"};
  common::CondVar cv_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_
      GUARDED_BY(mutex_);
  std::uint64_t seq_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
  /// A consumer is spinning in pop(spin) and no push has handed it an
  /// element yet. Written only under mutex_; the spinner polls it
  /// unlocked, then re-checks the heap under the lock.
  std::atomic<bool> spinning_{false};
  /// front_priority_hint(); written only under mutex_.
  std::atomic<Priority> front_hint_{std::numeric_limits<Priority>::max()};
};

/// Simple blocking FIFO queue.
template <typename T>
class SyncQueue {
 public:
  void push(T value) {
    {
      common::MutexLock lock(mutex_);
      queue_.push(std::move(value));
    }
    cv_.notify_one();
  }

  std::optional<T> pop() {
    common::MutexLock lock(mutex_);
    while (queue_.empty() && !closed_) cv_.wait(mutex_);
    if (queue_.empty()) return std::nullopt;
    T out = std::move(queue_.front());
    queue_.pop();
    return out;
  }

  std::size_t size() const {
    common::MutexLock lock(mutex_);
    return queue_.size();
  }

  void close() {
    {
      common::MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

 private:
  mutable common::Mutex mutex_{"sync_queue"};
  common::CondVar cv_;
  std::queue<T> queue_ GUARDED_BY(mutex_);
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace aimetro
