#include "runtime/compute_pool.hpp"

#include <algorithm>
#include <cassert>
#include <exception>
#include <latch>
#include <vector>

namespace wavekey::runtime {

namespace {

/// One forked chunk. `run` parks any exception in its chunk's slot, so
/// nothing escapes into the detached runner; after count_down the caller may
/// return, and nothing here touches its frame again.
template <typename Run>
Task<void> forked_chunk(const Run& run, std::size_t chunk, std::latch& done) {
  run(chunk);
  done.count_down();
  co_return;
}

EventLoop* g_compute_pool = nullptr;

}  // namespace

std::size_t parallel_lanes(const EventLoop* pool, std::size_t n) {
  const std::size_t threads = pool ? std::max<std::size_t>(pool->threads(), 1) : 1;
  return std::min(threads, std::max<std::size_t>(n, 1));
}

void parallel_for_chunks(EventLoop* pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunks = parallel_lanes(pool, n);
  if (chunks <= 1) {
    body(0, 0, n);
    return;
  }
  assert(!pool->on_worker_thread() &&
         "parallel_for_chunks from a worker of the same pool would deadlock");

  // Fixed chunking: chunk c covers [c*q + min(c,r), …) with q = n/chunks,
  // r = n%chunks — a pure function of (n, chunks), never of scheduling.
  const std::size_t q = n / chunks;
  const std::size_t r = n % chunks;
  std::vector<std::exception_ptr> errors(chunks);
  const auto run = [&](std::size_t c) noexcept {
    const std::size_t begin = c * q + std::min(c, r);
    try {
      body(c, begin, begin + q + (c < r ? 1 : 0));
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };

  std::latch done(static_cast<std::ptrdiff_t>(chunks - 1));
  for (std::size_t c = 1; c < chunks; ++c) {
    if (!pool->spawn(forked_chunk(run, c, done))) {  // closed loop: run it here
      run(c);
      done.count_down();
    }
  }
  run(0);
  done.wait();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

EventLoop* compute_pool() { return g_compute_pool; }
void set_compute_pool(EventLoop* pool) { g_compute_pool = pool; }

ScopedComputePool::ScopedComputePool(std::size_t threads)
    : pool_(threads), previous_(compute_pool()) {
  set_compute_pool(&pool_);
}

ScopedComputePool::~ScopedComputePool() { set_compute_pool(previous_); }

}  // namespace wavekey::runtime
