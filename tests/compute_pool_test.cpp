// Tests of the nn compute pool: the deterministic parallel_for_chunks
// fork-join on runtime::EventLoop (chunk layout, caller-runs-chunk-0,
// exception order, serial degenerate cases), drain on shutdown, and the
// global compute-pool seam.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/compute_pool.hpp"

using namespace wavekey::runtime;

namespace {

/// Element-wise body over parallel_for_chunks.
template <typename Fn>
void for_every_index(EventLoop* pool, std::size_t n, Fn fn) {
  parallel_for_chunks(pool, n, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

Task<void> sleep_then_count(std::atomic<int>* done) {
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // occupies the worker
  done->fetch_add(1);
  co_return;
}

Task<void> count(std::atomic<int>* done) {
  done->fetch_add(1);
  co_return;
}

}  // namespace

TEST(ComputePool, ChunksCoverEveryIndexOnce) {
  for (std::size_t threads : {0u, 1u, 2u, 3u, 4u}) {
    EventLoop pool(threads);
    for (std::size_t n : {0u, 1u, 2u, 7u, 64u, 100u}) {
      std::vector<std::atomic<int>> hits(n);
      for_every_index(&pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n << " i=" << i;
    }
  }
}

TEST(ComputePool, NullPoolRunsSerially) {
  std::vector<int> order;
  for_every_index(nullptr, 10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  std::vector<int> expect(10);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(order, expect);  // single inline chunk preserves index order
}

TEST(ComputePool, ParallelLanesIsAPureFunctionOfSizeAndN) {
  EXPECT_EQ(parallel_lanes(nullptr, 100), 1u);
  EventLoop pool0(0), pool1(1), pool4(4);
  EXPECT_EQ(parallel_lanes(&pool0, 100), 1u);
  EXPECT_EQ(parallel_lanes(&pool1, 100), 1u);
  EXPECT_EQ(parallel_lanes(&pool4, 100), 4u);
  EXPECT_EQ(parallel_lanes(&pool4, 3), 3u);   // never more chunks than items
  EXPECT_EQ(parallel_lanes(&pool4, 0), 1u);
}

TEST(ComputePool, ChunkBoundsAreContiguousAndBalanced) {
  EventLoop pool(3);
  const std::size_t n = 10;
  std::vector<std::pair<std::size_t, std::size_t>> bounds(parallel_lanes(&pool, n));
  parallel_for_chunks(&pool, n, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
    bounds[chunk] = {begin, end};
  });
  // 10 over 3 lanes: 4 + 3 + 3, in order, gap-free.
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_EQ(bounds[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(bounds[1], (std::pair<std::size_t, std::size_t>{4, 7}));
  EXPECT_EQ(bounds[2], (std::pair<std::size_t, std::size_t>{7, 10}));
}

TEST(ComputePool, ChunkZeroRunsOnCallerTheRestOnLoopWorkers) {
  EventLoop pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(4);
  std::vector<char> on_worker(4, 0);
  parallel_for_chunks(&pool, 4, [&](std::size_t chunk, std::size_t, std::size_t) {
    ran_on[chunk] = std::this_thread::get_id();
    on_worker[chunk] = pool.on_worker_thread() ? 1 : 0;
  });
  EXPECT_EQ(ran_on[0], caller);
  EXPECT_EQ(on_worker[0], 0);
  for (std::size_t c = 1; c < 4; ++c) {
    EXPECT_NE(ran_on[c], caller) << "chunk " << c;
    EXPECT_EQ(on_worker[c], 1) << "chunk " << c;
  }
  EXPECT_EQ(pool.stats().spawned, 3u);  // one task per forked chunk
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ComputePool, ExceptionPropagatesAndPoolStaysUsable) {
  EventLoop pool(2);
  EXPECT_THROW(for_every_index(&pool, 50,
                               [&](std::size_t i) {
                                 if (i == 17) throw std::runtime_error("bad index");
                               }),
               std::runtime_error);
  // All chunks completed despite the throw; the pool still works.
  std::atomic<int> hits{0};
  for_every_index(&pool, 20, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 20);
}

TEST(ComputePool, FirstExceptionInChunkOrderIsRethrownAfterEveryChunk) {
  EventLoop pool(4);
  for (std::size_t first : {0u, 1u, 2u}) {
    std::atomic<int> finished{0};
    try {
      parallel_for_chunks(&pool, 4, [&](std::size_t chunk, std::size_t, std::size_t) {
        // Chunk `first` throws last in time; a later chunk throws too.
        if (chunk == first) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          finished.fetch_add(1);
          throw std::runtime_error("chunk " + std::to_string(chunk));
        }
        finished.fetch_add(1);
        if (chunk == 3) throw std::logic_error("chunk 3");
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "chunk " + std::to_string(first));
    }
    EXPECT_EQ(finished.load(), 4) << "rethrown before every chunk finished";
  }
}

TEST(ComputePool, ShutdownDrainsPendingWork) {
  std::atomic<int> done{0};
  {
    EventLoop pool(1);
    // Head task occupies the single worker; the rest pile up in the queue
    // and must still run before the destructor returns.
    ASSERT_TRUE(pool.spawn(sleep_then_count(&done)));
    for (int i = 0; i < 16; ++i) ASSERT_TRUE(pool.spawn(count(&done)));
  }
  EXPECT_EQ(done.load(), 17);
}

TEST(ComputePool, SingleLaneLoopsRunInlineOnCaller) {
  for (std::size_t threads : {0u, 1u}) {
    EventLoop pool(threads);
    EXPECT_EQ(pool.threads(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    std::thread::id ran_on;
    parallel_for_chunks(&pool, 9, [&](std::size_t, std::size_t begin, std::size_t end) {
      calls.emplace_back(begin, end);
      ran_on = std::this_thread::get_id();
    });
    EXPECT_EQ(calls, (std::vector<std::pair<std::size_t, std::size_t>>{{0, 9}}));
    EXPECT_EQ(ran_on, caller);
    EXPECT_EQ(pool.stats().spawned, 0u) << "threads=" << threads;
  }
}

TEST(ComputePool, ScopedComputePoolInstallsAndRestores) {
  ASSERT_EQ(compute_pool(), nullptr);
  {
    ScopedComputePool outer(2);
    EXPECT_EQ(compute_pool(), &outer.pool());
    EXPECT_EQ(compute_pool()->threads(), 2u);
    {
      ScopedComputePool inner(3);
      EXPECT_EQ(compute_pool(), &inner.pool());
    }
    EXPECT_EQ(compute_pool(), &outer.pool());
  }
  EXPECT_EQ(compute_pool(), nullptr);
}
