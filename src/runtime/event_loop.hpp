#pragma once

// N-thread coroutine executor with a hierarchical timer wheel — the one
// executor type of the tree. Serving instances (AccessServer, ReaderGateway,
// PairingEngine) run request coroutines on it; the nn compute pool
// (compute_pool.hpp) is an instance used for fork-join batch parallelism.
//
// The serving core (AccessServer, ReaderGateway) used to burn one OS thread
// per in-flight request: workers parked in std::this_thread::sleep_for on
// emulated actuation I/O and on retry backoff, capping concurrency at the
// worker-pool size. EventLoop replaces the park with a suspend: a request is
// a Task<void> coroutine, `co_await loop.sleep_for(t)` files the suspended
// frame into a timer wheel and frees the worker, and `co_await queue.pop()`
// suspends until a producer hands an item over. 10k+ grants can be in flight
// on 4 threads; the only per-request cost while parked is the coroutine
// frame.
//
// Components:
//  - EventLoop: fixed worker threads draining a ready queue of coroutine
//    handles, plus one timer thread owning the wheel. spawn() launches a
//    detached Task<void>; drain() blocks until every spawned task finished.
//  - sleep_for(seconds): awaitable; the frame is resumed by a worker once
//    the wheel expires it. Resolution is one wheel tick (100 us).
//  - AsyncQueue<T>: bounded MPMC channel; producers use blocking push /
//    non-blocking try_push from plain threads, consumers `co_await pop()`.
//    close() wakes every parked consumer with nullopt after the backlog
//    drains — this is the notify-driven shutdown that replaces the old
//    fixed-slice try_pop_for polling loop.
//
// Timers: a runtime::TimerWheel (timer_wheel.hpp) at 100 us/tick on the
// steady clock (level spans 6.4 ms, 409.6 ms, 26.2 s, ~28 min; farther
// deadlines park in the top level and re-cascade). The timer thread sleeps
// until the wheel's next wake tick and waits indefinitely when no timers are
// pending — it never polls.
//
// Thread-safety: all public methods are thread-safe. A coroutine handle is
// owned by exactly one queue (ready deque, wheel slot, or AsyncQueue waiter
// list) at a time, so each frame is resumed by exactly one worker.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/task.hpp"
#include "runtime/timer_wheel.hpp"

namespace wavekey::runtime {

/// Monotonic counters mirrored under one lock — same snapshot discipline as
/// AccessServerStats: `spawned == completed + active` holds on every read.
struct EventLoopStats {
  std::uint64_t spawned = 0;           ///< tasks accepted by spawn()
  std::uint64_t completed = 0;         ///< tasks that ran to completion
  std::uint64_t posts = 0;             ///< handles enqueued on the ready queue
  std::uint64_t timers_scheduled = 0;  ///< sleep_for suspensions filed
  std::uint64_t timers_fired = 0;      ///< wheel expirations posted
  std::uint64_t active = 0;            ///< spawned - completed
};

class EventLoop {
 public:
  /// Starts `threads` workers (min 1) plus the timer thread.
  explicit EventLoop(std::size_t threads);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Launches a detached task. Returns false (task destroyed unstarted) if
  /// the loop is closed. The task's frame is destroyed as soon as it
  /// completes; an exception escaping a spawned task terminates (detached
  /// tasks have no awaiter to rethrow into — handle errors in the task).
  bool spawn(Task<void> task);

  /// Awaitable: suspends the coroutine for `seconds` (wall clock), resuming
  /// on a worker thread. Non-positive durations resume immediately without
  /// suspending, so zero-backoff retry loops stay synchronous and fast.
  auto sleep_for(double seconds) noexcept {
    struct SleepAwaiter {
      EventLoop* loop;
      double seconds;
      bool await_ready() const noexcept { return seconds <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) { loop->schedule_timer(h, seconds); }
      void await_resume() const noexcept {}
    };
    return SleepAwaiter{this, seconds};
  }

  /// Refuses further spawns. Already-spawned tasks keep running.
  void close();
  bool closed() const;

  /// Blocks until every spawned task has completed. Call close() first if
  /// producers might still be spawning.
  void drain();

  EventLoopStats stats() const;
  std::size_t threads() const { return workers_.size(); }

  /// True iff the calling thread is one of this loop's workers (a worker
  /// that blocks on work queued behind itself would deadlock).
  bool on_worker_thread() const;

  /// Enqueues a suspended handle for resumption on a worker thread.
  /// (Public for awaiter implementations; not a user entry point.)
  void post(std::coroutine_handle<> h);

 private:
  friend struct detail_spawn_access;

  using Clock = std::chrono::steady_clock;

  void worker_main();
  void timer_main();
  void schedule_timer(std::coroutine_handle<> h, double seconds);
  void task_finished();
  std::uint64_t tick_of(Clock::time_point t) const;  ///< wheel tick containing t
  Clock::time_point time_of(std::uint64_t tick) const;

  // Ready queue.
  mutable std::mutex ready_mutex_;
  std::condition_variable ready_cv_;
  std::deque<std::coroutine_handle<>> ready_;
  bool stopping_ = false;

  // Lifecycle (guarded by stats_mutex_): spawned == completed + active is
  // snapshot-consistent. Throughput counters are relaxed atomics — they sit
  // on the post/timer hot paths and carry no invariant of their own.
  mutable std::mutex stats_mutex_;
  std::condition_variable drained_cv_;
  std::uint64_t spawned_ = 0;
  std::uint64_t completed_ = 0;
  bool closed_ = false;
  std::atomic<std::uint64_t> posts_{0};
  std::atomic<std::uint64_t> timers_scheduled_{0};
  std::atomic<std::uint64_t> timers_fired_{0};

  // Timer wheel (guarded by timer_mutex_); tick 0 starts at epoch_.
  const Clock::time_point epoch_;
  mutable std::mutex timer_mutex_;
  std::condition_variable timer_cv_;
  TimerWheel<std::coroutine_handle<>> wheel_;
  bool timer_stop_ = false;

  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

/// Bounded MPMC channel bridging plain threads (producers) and coroutines
/// (consumers). Pop order is FIFO; items enqueued before close() are always
/// delivered before the nullopt wake.
template <typename T>
class AsyncQueue {
 public:
  enum class PushResult { kOk, kFull, kClosed };

  AsyncQueue(EventLoop& loop, std::size_t capacity)
      : loop_(loop), capacity_(capacity ? capacity : 1) {}

  AsyncQueue(const AsyncQueue&) = delete;
  AsyncQueue& operator=(const AsyncQueue&) = delete;

  /// Blocking push with backpressure: waits while the queue is at capacity
  /// and no consumer is parked. Returns false if the queue is closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] {
      return closed_ || !waiters_.empty() || items_.size() < capacity_;
    });
    if (closed_) return false;
    if (!waiters_.empty()) {
      hand_off(std::move(item), lock);
      return true;
    }
    items_.push_back(std::move(item));
    return true;
  }

  /// Non-blocking push; kFull when at capacity with no parked consumer.
  PushResult try_push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (closed_) return PushResult::kClosed;
    if (!waiters_.empty()) {
      hand_off(std::move(item), lock);
      return PushResult::kOk;
    }
    if (items_.size() >= capacity_) return PushResult::kFull;
    items_.push_back(std::move(item));
    return PushResult::kOk;
  }

  struct PopAwaiter {
    AsyncQueue* queue;
    std::optional<T> item;

    // All state inspection happens in await_suspend under the queue mutex:
    // checking emptiness in await_ready and suspending afterwards would lose
    // an item pushed between the two steps.
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      std::unique_lock<std::mutex> lock(queue->mutex_);
      if (!queue->items_.empty()) {
        item.emplace(std::move(queue->items_.front()));
        queue->items_.pop_front();
        lock.unlock();
        queue->not_full_.notify_one();
        return false;  // resume immediately with the item
      }
      if (queue->closed_) return false;  // resume immediately with nullopt
      queue->waiters_.push_back(Waiter{h, &item});
      return true;
    }
    std::optional<T> await_resume() noexcept { return std::move(item); }
  };

  /// Awaitable pop: suspends until an item arrives or the queue closes
  /// (nullopt). Consumers must run on the owning EventLoop.
  PopAwaiter pop() { return PopAwaiter{this, std::nullopt}; }

  /// Closes the queue: pending items still drain to consumers; parked
  /// consumers wake with nullopt; producers see kClosed/false.
  void close() {
    std::deque<Waiter> parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return;
      closed_ = true;
      parked.swap(waiters_);
    }
    not_full_.notify_all();
    for (const Waiter& w : parked) loop_.post(w.handle);  // slots stay nullopt
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

 private:
  friend struct PopAwaiter;

  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;  ///< lives in the suspended frame's awaiter
  };

  /// Pre: lock held, waiters_ non-empty. Fills the front waiter's slot and
  /// posts its handle outside the lock.
  void hand_off(T item, std::unique_lock<std::mutex>& lock) {
    Waiter w = waiters_.front();
    waiters_.pop_front();
    w.slot->emplace(std::move(item));
    lock.unlock();
    loop_.post(w.handle);
  }

  EventLoop& loop_;
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::deque<Waiter> waiters_;
  bool closed_ = false;
};

}  // namespace wavekey::runtime
