#include "runtime/event_loop.hpp"

#include <chrono>
#include <cmath>
#include <exception>

namespace wavekey::runtime {

// Every entry is a handle plus its deadline tick: 16 bytes.
static_assert(sizeof(TimerWheel<std::coroutine_handle<>>::Entry) == 16);

namespace {

constexpr std::uint64_t kTickNs = 100'000;  // 100 us

// The loop whose worker the current thread is, if any.
thread_local const EventLoop* t_worker_of = nullptr;

}  // namespace

// ---------------------------------------------------------------------------
// Detached runner: the coroutine EventLoop::spawn wraps around a Task<void>.
// Its frame owns the task (and therefore the task's frame); the final awaiter
// destroys the runner frame first and only then reports completion, so
// drain() returning implies every frame is already freed.
// ---------------------------------------------------------------------------

namespace {

struct Detached {
  struct promise_type {
    EventLoop* loop = nullptr;

    Detached get_return_object() {
      return Detached{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        EventLoop* loop = h.promise().loop;
        h.destroy();  // frees runner frame + owned task frame; h is dead now
        detail_finished(loop);
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    // Detached: no awaiter to rethrow into. A task that lets an exception
    // escape is a bug in the task, and hiding it would corrupt the ledger
    // invariants the server layers rely on.
    void unhandled_exception() { std::terminate(); }

    static void detail_finished(EventLoop* loop);
  };

  std::coroutine_handle<promise_type> handle;
};

Detached run_detached(Task<void> task) { co_await std::move(task); }

}  // namespace

// Grants the runner access to the private completion hook.
struct detail_spawn_access {
  static void finished(EventLoop* loop) { loop->task_finished(); }
};

namespace {
void Detached::promise_type::detail_finished(EventLoop* loop) {
  detail_spawn_access::finished(loop);
}
}  // namespace

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

EventLoop::EventLoop(std::size_t threads) : epoch_(Clock::now()) {
  const std::size_t n = threads ? threads : 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  timer_thread_ = std::thread([this] { timer_main(); });
}

EventLoop::~EventLoop() {
  close();
  drain();
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  timer_thread_.join();
  {
    std::lock_guard<std::mutex> lock(ready_mutex_);
    stopping_ = true;
  }
  ready_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool EventLoop::spawn(Task<void> task) {
  if (!task.valid()) return false;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (closed_) return false;  // task destroyed unstarted on return
    ++spawned_;
  }
  Detached runner = run_detached(std::move(task));
  runner.handle.promise().loop = this;
  post(runner.handle);
  return true;
}

void EventLoop::post(std::coroutine_handle<> h) {
  posts_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ready_mutex_);
    ready_.push_back(h);
  }
  ready_cv_.notify_one();
}

void EventLoop::close() {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  closed_ = true;
}

bool EventLoop::closed() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return closed_;
}

void EventLoop::drain() {
  std::unique_lock<std::mutex> lock(stats_mutex_);
  drained_cv_.wait(lock, [&] { return spawned_ == completed_; });
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.spawned = spawned_;
    out.completed = completed_;
    out.active = spawned_ - completed_;
  }
  out.posts = posts_.load(std::memory_order_relaxed);
  out.timers_scheduled = timers_scheduled_.load(std::memory_order_relaxed);
  out.timers_fired = timers_fired_.load(std::memory_order_relaxed);
  return out;
}

void EventLoop::task_finished() {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++completed_;
    drained = (completed_ == spawned_);
  }
  if (drained) drained_cv_.notify_all();
}

void EventLoop::schedule_timer(std::coroutine_handle<> h, double seconds) {
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(timer_mutex_);
    const auto delay_ticks =
        static_cast<std::uint64_t>(std::ceil(seconds * 1e9 / static_cast<double>(kTickNs)));
    // tick_of(now) >= the wheel's current tick and the delay is >= 1 tick,
    // so the deadline is always in the wheel's future: never an early fire.
    wheel_.arm(h, tick_of(Clock::now()) + (delay_ticks ? delay_ticks : 1));
  }
  // Wake the timer thread: the new deadline may be sooner than its current
  // sleep target.
  timer_cv_.notify_one();
}

std::uint64_t EventLoop::tick_of(Clock::time_point t) const {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns) / kTickNs;
}

EventLoop::Clock::time_point EventLoop::time_of(std::uint64_t tick) const {
  return epoch_ + std::chrono::nanoseconds(tick * kTickNs);
}

bool EventLoop::on_worker_thread() const { return t_worker_of == this; }

void EventLoop::worker_main() {
  t_worker_of = this;
  for (;;) {
    std::coroutine_handle<> h;
    {
      std::unique_lock<std::mutex> lock(ready_mutex_);
      ready_cv_.wait(lock, [&] { return stopping_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stopping and fully drained
      h = ready_.front();
      ready_.pop_front();
    }
    h.resume();
  }
}

void EventLoop::timer_main() {
  std::vector<std::coroutine_handle<>> expired;
  std::unique_lock<std::mutex> lock(timer_mutex_);
  while (!timer_stop_) {
    expired.clear();
    wheel_.advance_to(tick_of(Clock::now()), expired);
    if (!expired.empty()) {
      lock.unlock();
      timers_fired_.fetch_add(expired.size(), std::memory_order_relaxed);
      for (auto h : expired) post(h);
      lock.lock();
      continue;  // re-check: more may have become due while posting
    }
    if (wheel_.size() == 0) {
      timer_cv_.wait(lock);  // indefinite — no polling when idle
    } else {
      timer_cv_.wait_until(lock, time_of(wheel_.next_wake_tick()));
    }
  }
}

}  // namespace wavekey::runtime
