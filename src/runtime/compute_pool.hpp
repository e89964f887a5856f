#pragma once

// The nn compute pool: a runtime::EventLoop used as a fork-join executor for
// batch-level data parallelism in training and inference (src/nn, through
// compute_pool()). It is the same executor type the serving paths run on,
// installed process-wide instead of owned by a server.
//
// Deliberately work-stealing-free: work is split into a *fixed, size-derived*
// number of chunks so that the floating-point reduction order — and therefore
// every trained weight and every bench table — is a pure function of (input,
// pool threads), never of scheduling luck. DESIGN.md §7 states the full
// determinism contract.
//
// Thread-safety: parallel_for_chunks / for_each_chunk are safe to call from
// any thread that is *not* one of the pool's own workers (a worker waiting on
// chunks queued behind itself would deadlock; an assertion guards the debug
// build). The global compute-pool pointer (set_compute_pool /
// ScopedComputePool) is a process-wide, unsynchronized seam: install it while
// no training or inference is in flight.

#include <cstddef>
#include <functional>

#include "runtime/event_loop.hpp"

namespace wavekey::runtime {

/// Number of chunks parallel_for_chunks(pool, n, …) will use:
/// min(max(threads, 1), max(n, 1)). Depends only on the pool's thread count
/// and n, never on load — this is what makes chunked reductions
/// deterministic.
std::size_t parallel_lanes(const EventLoop* pool, std::size_t n);

/// Splits [0, n) into parallel_lanes(pool, n) contiguous chunks of
/// near-equal size and runs body(chunk, begin, end) for each. Chunk 0 runs
/// on the calling thread; the rest are spawned on the loop and the caller
/// waits on a latch, so a pool of t threads yields at most t-way concurrency.
/// With a null pool or threads() <= 1 this degenerates to one inline
/// body(0, 0, n) call — the serial path, bit for bit.
///
/// All chunks complete before return. If any chunk throws, the first
/// exception in chunk order is rethrown after every chunk has finished; the
/// pool remains usable.
void parallel_for_chunks(EventLoop* pool, std::size_t n,
                         const std::function<void(std::size_t chunk, std::size_t begin,
                                                  std::size_t end)>& body);

/// Template variant of parallel_for_chunks: identical chunk layout, but the
/// serial path (null pool / threads() <= 1 / n <= 1) invokes the body
/// directly without materializing a std::function — large lambdas would
/// otherwise heap-allocate even when no pool is installed. The nn hot paths
/// use this so single-threaded steady-state inference performs zero
/// allocations (see tensor.hpp's arena contract). The parallel path delegates
/// to parallel_for_chunks via a non-owning reference wrapper.
template <typename Body>
void for_each_chunk(EventLoop* pool, std::size_t n, Body&& body) {
  if (parallel_lanes(pool, n) <= 1) {
    body(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  parallel_for_chunks(
      pool, n,
      std::function<void(std::size_t, std::size_t, std::size_t)>(std::ref(body)));
}

/// Process-global pool consulted by the nn layers for batch-level data
/// parallelism. Defaults to nullptr (fully serial). Not synchronized:
/// install while no compute is in flight.
EventLoop* compute_pool();
void set_compute_pool(EventLoop* pool);

/// RAII owner+installer of the global compute pool; restores the previous
/// pool on destruction. `threads` 0 or 1 installs a loop that
/// parallel_for_chunks never forks onto (serial inline).
class ScopedComputePool {
 public:
  explicit ScopedComputePool(std::size_t threads);
  ~ScopedComputePool();

  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

  EventLoop& pool() { return pool_; }

 private:
  EventLoop pool_;
  EventLoop* previous_;
};

}  // namespace wavekey::runtime
