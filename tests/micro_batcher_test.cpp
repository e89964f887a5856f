// Tests for the cross-session batched inference stage (DESIGN.md §10):
// runtime::MicroBatcher dispatch/drain edge cases and exactly-once
// resolution under concurrency (the TSan-leg soak), the nn::BatchedInference
// lowering (batch-of-1 bit-identity, cross-batch tolerance, zero
// steady-state allocations), and core::BatchedEncoderService /
// core::PairingEngine integration including the hold-time -> virtual-clock
// accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/batched_encoder.hpp"
#include "core/encoders.hpp"
#include "core/pairing_engine.hpp"
#include "core/seed_quantizer.hpp"
#include "nn/batched_infer.hpp"
#include "nn/tensor.hpp"
#include "numeric/rng.hpp"
#include "runtime/micro_batcher.hpp"

namespace wavekey {
namespace {

using runtime::MicroBatcher;
using runtime::MicroBatcherConfig;
using runtime::MicroBatcherStats;

using IntBatcher = MicroBatcher<int, int>;

IntBatcher::FlushFn increment_flush() {
  return [](std::vector<int>& items) {
    std::vector<int> out;
    out.reserve(items.size());
    for (int v : items) out.push_back(v + 1);
    return out;
  };
}

nn::Tensor random_input(const std::vector<std::size_t>& shape, Rng& rng) {
  nn::Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal());
  return t;
}

// ---------------------------------------------------------------------------
// MicroBatcher dispatch policy
// ---------------------------------------------------------------------------

TEST(MicroBatcher, FullBatchDispatchesImmediately) {
  // Hold deadline far away: only the size trigger can dispatch.
  IntBatcher batcher({/*max_batch=*/4, /*max_hold_s=*/10.0}, increment_flush());

  std::vector<std::thread> threads;
  std::vector<IntBatcher::Ticket> tickets(4);
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&, i] { tickets[i] = *batcher.submit(10 * i); });
  for (auto& t : threads) t.join();

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tickets[i].value, 10 * i + 1);
    EXPECT_EQ(tickets[i].batch_size, 4u);
    EXPECT_FALSE(tickets[i].deadline_dispatch);
  }
  const MicroBatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.items, 4u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.full_dispatches, 1u);
  EXPECT_EQ(stats.deadline_dispatches, 0u);
}

TEST(MicroBatcher, DeadlineFiresPartialBatch) {
  // A lone submitter must not wait for a batch that will never fill: the
  // max-hold deadline dispatches a partial batch (here, of one).
  IntBatcher batcher({/*max_batch=*/64, /*max_hold_s=*/2e-3}, increment_flush());

  const auto t0 = std::chrono::steady_clock::now();
  const auto ticket = batcher.submit(7);
  const double waited = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  ASSERT_TRUE(ticket.has_value());
  EXPECT_EQ(ticket->value, 8);
  EXPECT_EQ(ticket->batch_size, 1u);
  EXPECT_TRUE(ticket->deadline_dispatch);
  EXPECT_GE(waited, 1e-3);  // actually held until (about) the deadline
  EXPECT_GE(ticket->hold_s, 1e-3);
  EXPECT_EQ(batcher.stats().deadline_dispatches, 1u);
}

TEST(MicroBatcher, FillRacingDeadlineElectsExactlyOneLeader) {
  // Scan the race window where the batch fills at ~the same instant the
  // first submitter's deadline fires: every iteration both items must
  // resolve exactly once, whatever the interleaving.
  for (int iter = 0; iter < 50; ++iter) {
    IntBatcher batcher({/*max_batch=*/2, /*max_hold_s=*/1e-3}, increment_flush());
    std::optional<IntBatcher::Ticket> first;
    std::thread waiter([&] { first = batcher.submit(100); });
    // Land the second submit around the deadline, sweeping the window.
    std::this_thread::sleep_for(std::chrono::microseconds(900 + 10 * iter));
    const auto second = batcher.submit(200);
    waiter.join();

    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->value, 101);
    if (second.has_value()) {
      EXPECT_EQ(second->value, 201);
    }
    const MicroBatcherStats stats = batcher.stats();
    EXPECT_EQ(stats.items, 1u + (second.has_value() ? 1u : 0u));
    EXPECT_EQ(stats.batches, stats.full_dispatches + stats.deadline_dispatches +
                                 stats.drain_dispatches);
  }
}

TEST(MicroBatcher, CloseDrainsHeldItemsWithoutLoss) {
  IntBatcher batcher({/*max_batch=*/8, /*max_hold_s=*/10.0}, increment_flush());

  std::vector<std::thread> threads;
  std::vector<std::optional<IntBatcher::Ticket>> tickets(3);
  std::atomic<int> submitted{0};
  for (int i = 0; i < 3; ++i)
    threads.emplace_back([&, i] {
      submitted.fetch_add(1);
      tickets[i] = batcher.submit(i);
    });
  while (submitted.load() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  batcher.close();  // the closer leads the final partial batch
  for (auto& t : threads) t.join();

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(tickets[i].has_value()) << "held item " << i << " was lost at shutdown";
    EXPECT_EQ(tickets[i]->value, i + 1);
    EXPECT_EQ(tickets[i]->batch_size, 3u);
  }
  EXPECT_EQ(batcher.stats().drain_dispatches, 1u);
  EXPECT_TRUE(batcher.closed());
  EXPECT_FALSE(batcher.submit(99).has_value());  // fails fast after close
}

TEST(MicroBatcher, FlushFailureFailsEveryBatchMember) {
  MicroBatcher<int, int> throwing({/*max_batch=*/2, /*max_hold_s=*/10.0},
                                  [](std::vector<int>&) -> std::vector<int> {
                                    throw std::runtime_error("flush exploded");
                                  });
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i)
    threads.emplace_back([&] {
      EXPECT_THROW((void)throwing.submit(1), std::runtime_error);
      failures.fetch_add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 2);  // both members saw the error, no hang

  MicroBatcher<int, int> short_result({/*max_batch=*/1, /*max_hold_s=*/10.0},
                                      [](std::vector<int>&) { return std::vector<int>{}; });
  EXPECT_THROW((void)short_result.submit(1), std::runtime_error);
}

TEST(MicroBatcher, ConcurrentSoakResolvesEveryItemExactlyOnce) {
  // TSan-leg soak: many producers, size- and deadline-dispatches mixed,
  // then a drain. Every submitted item must come back exactly once with its
  // own result (the flush function maps v -> v + 1, so result-1 identifies
  // the item).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  IntBatcher batcher({/*max_batch=*/5, /*max_hold_s=*/200e-6}, increment_flush());

  std::vector<std::thread> threads;
  std::vector<std::vector<int>> results(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int item = t * kPerThread + i;
        const auto ticket = batcher.submit(item);
        ASSERT_TRUE(ticket.has_value());
        ASSERT_GE(ticket->batch_size, 1u);
        ASSERT_LE(ticket->batch_size, 5u);
        results[t].push_back(ticket->value);
      }
    });
  for (auto& t : threads) t.join();
  batcher.close();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(results[t].size(), static_cast<std::size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i)
      EXPECT_EQ(results[t][i], t * kPerThread + i + 1) << "item resolved with wrong result";
  }
  const MicroBatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.items, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GE(stats.batches, stats.items / 5);
  EXPECT_GT(stats.max_hold_s, 0.0);
}

// ---------------------------------------------------------------------------
// nn::BatchedInference lowering
// ---------------------------------------------------------------------------

TEST(BatchedDenseKernel, Avx2MatchesScalarWithinTolerance) {
  Rng rng(91);
  const std::size_t m = 13, k = 37, n_pad = 16;  // edge rows + two groups
  std::vector<float> w(m * k), x(k * n_pad), bias(m), y_scalar(m * n_pad), y_avx2(m * n_pad);
  for (auto& v : w) v = static_cast<float>(rng.normal());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : bias) v = static_cast<float>(rng.normal());

  nn::detail::batched_dense_scalar(m, k, n_pad, w.data(), x.data(), bias.data(), y_scalar.data());
  nn::detail::batched_dense_avx2(m, k, n_pad, w.data(), x.data(), bias.data(), y_avx2.data());

  for (std::size_t i = 0; i < y_scalar.size(); ++i) {
    // FMA + different accumulation order: kernel-equivalence tolerance, not
    // bit-identity (same contract as the gemm sweeps in kernel_equiv_test).
    const double rel = std::fabs(y_scalar[i] - y_avx2[i]) /
                       std::max(1e-3, static_cast<double>(std::fabs(y_scalar[i])));
    EXPECT_LT(rel, 1e-4) << "element " << i;
  }
}

TEST(BatchedDenseKernel, StridedCopiesMatchScalarGather) {
  Rng rng(92);
  for (const std::size_t stride : {2u, 4u}) {
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 17u, 100u}) {
      // Exactly the guaranteed extent src[0 .. stride*(n-1)]: an OOB read in
      // the vector body would be caught by ASan here.
      std::vector<float> src(n == 0 ? 0 : stride * (n - 1) + 1);
      for (auto& v : src) v = static_cast<float>(rng.normal());
      std::vector<float> dst(n, -1.0f);
      if (stride == 2)
        nn::detail::copy_stride2_avx2(dst.data(), src.data(), n);
      else
        nn::detail::copy_stride4_avx2(dst.data(), src.data(), n);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(dst[i], src[stride * i]) << "stride=" << stride << " n=" << n << " i=" << i;
    }
  }
}

TEST(BatchedDenseKernel, FlattenTransposeMatchesScalarGather) {
  Rng rng(94);
  for (const std::size_t b : {1u, 2u, 5u, 8u, 9u, 16u, 19u}) {
    const std::size_t n_pad = (b + 7) / 8 * 8;
    for (const std::size_t len : {1u, 7u, 8u, 9u, 50u, 200u}) {
      std::vector<float> src(b * len);
      for (auto& v : src) v = static_cast<float>(rng.normal());
      // Poisoned so a skipped pad column shows up as -1, not a stale zero.
      std::vector<float> dst(len * n_pad, -1.0f);
      nn::detail::flatten_transpose_avx2(src.data(), b, len, n_pad, dst.data());
      for (std::size_t t = 0; t < len; ++t)
        for (std::size_t s = 0; s < n_pad; ++s) {
          const float want = s < b ? src[s * len + t] : 0.0f;
          EXPECT_EQ(dst[t * n_pad + s], want) << "b=" << b << " len=" << len << " t=" << t
                                              << " s=" << s;
        }
    }
  }
}

TEST(BatchedInference, BatchOfOneIsBitIdenticalToSerialPath) {
  Rng rng(93);
  core::EncoderPair encoders(12, rng);
  nn::BatchedInference imu_infer(encoders.imu_encoder(), 3, 200);
  nn::BatchedInference rf_infer(encoders.rfid_encoder(), 2, 400);

  const nn::Tensor imu = random_input({3, 200}, rng);
  const nn::Tensor rf = random_input({2, 400}, rng);
  const std::vector<double> imu_serial = encoders.imu_features(imu);
  const std::vector<double> rf_serial = encoders.rfid_features(rf);

  const nn::Tensor* imu_ptr = &imu;
  const nn::Tensor* rf_ptr = &rf;
  const nn::Tensor imu_out = imu_infer.forward({&imu_ptr, 1});
  const nn::Tensor rf_out = rf_infer.forward({&rf_ptr, 1});

  ASSERT_EQ(imu_out.size(), 12u);
  ASSERT_EQ(rf_out.size(), 12u);
  for (std::size_t f = 0; f < 12; ++f) {
    EXPECT_EQ(static_cast<double>(imu_out.raw()[f]), imu_serial[f]) << "IMU latent " << f;
    EXPECT_EQ(static_cast<double>(rf_out.raw()[f]), rf_serial[f]) << "RF latent " << f;
  }
}

TEST(BatchedInference, BatchMatchesSerialWithinTolerance) {
  // Batch > 1 uses different (but fixed) reduction orders, so the contract
  // is the kernel-equivalence tolerance, not bit-identity (DESIGN.md §10.4).
  Rng rng(94);
  core::EncoderPair encoders(12, rng);
  nn::BatchedInference imu_infer(encoders.imu_encoder(), 3, 200);

  constexpr std::size_t kBatch = 8;
  std::vector<nn::Tensor> inputs;
  std::vector<const nn::Tensor*> ptrs;
  for (std::size_t s = 0; s < kBatch; ++s) inputs.push_back(random_input({3, 200}, rng));
  for (const auto& t : inputs) ptrs.push_back(&t);

  const nn::Tensor batched = imu_infer.forward({ptrs.data(), ptrs.size()});
  ASSERT_EQ(batched.size(), kBatch * 12u);
  for (std::size_t s = 0; s < kBatch; ++s) {
    const std::vector<double> serial = encoders.imu_features(inputs[s]);
    for (std::size_t f = 0; f < 12; ++f) {
      const double got = batched.raw()[s * 12 + f];
      const double rel = std::fabs(got - serial[f]) / std::max(1e-4, std::fabs(serial[f]));
      EXPECT_LT(rel, 1e-3) << "sample " << s << " latent " << f;
    }
  }
}

TEST(BatchedInference, RejectsUnsupportedArchitectureAndBadShapes) {
  Rng rng(95);
  core::EncoderPair encoders(12, rng);
  // The decoder is a Reshape + deconv stack: not batchable by this lowering.
  EXPECT_THROW(nn::BatchedInference(encoders.decoder(), 12, 1), std::invalid_argument);
  // Channel mismatch against the IMU net.
  EXPECT_THROW(nn::BatchedInference(encoders.imu_encoder(), 2, 200), std::invalid_argument);

  nn::BatchedInference infer(encoders.imu_encoder(), 3, 200);
  const nn::Tensor wrong = random_input({2, 400}, rng);
  const nn::Tensor* ptr = &wrong;
  EXPECT_THROW((void)infer.forward({&ptr, 1}), std::invalid_argument);
  EXPECT_THROW((void)infer.forward(std::span<const nn::Tensor* const>{}), std::invalid_argument);
}

TEST(BatchedInference, ZeroAllocationSteadyState) {
  // The batched forward reuses the thread-local tensor arena across calls:
  // after warmup, the heap-allocation counter must stop moving.
  Rng rng(96);
  core::EncoderPair encoders(12, rng);
  nn::BatchedInference infer(encoders.imu_encoder(), 3, 200);

  std::vector<nn::Tensor> inputs;
  std::vector<const nn::Tensor*> ptrs;
  for (std::size_t s = 0; s < 8; ++s) inputs.push_back(random_input({3, 200}, rng));
  for (const auto& t : inputs) ptrs.push_back(&t);
  const std::span<const nn::Tensor* const> span{ptrs.data(), ptrs.size()};

  for (int warmup = 0; warmup < 4; ++warmup) (void)infer.forward(span);

  const nn::TensorArenaStats before = nn::tensor_arena_stats();
  for (int i = 0; i < 16; ++i) (void)infer.forward(span);
  const nn::TensorArenaStats after = nn::tensor_arena_stats();

  EXPECT_EQ(after.heap_allocations, before.heap_allocations)
      << "steady-state batched inference hit the heap";
}

// ---------------------------------------------------------------------------
// core::BatchedEncoderService + PairingEngine integration
// ---------------------------------------------------------------------------

TEST(BatchedEncoderService, BatchOfOneMatchesSerialEncodersBitExactly) {
  Rng rng(97);
  core::EncoderPair encoders(12, rng);
  core::BatchedEncoderConfig config;
  config.max_batch = 1;  // every encode dispatches alone -> serial path
  core::BatchedEncoderService service(encoders, config);

  const nn::Tensor imu = random_input({3, 200}, rng);
  const nn::Tensor rf = random_input({2, 400}, rng);
  const core::EncodedLatents enc = service.encode(imu, rf);

  EXPECT_EQ(enc.batch_size, 1u);
  EXPECT_EQ(enc.mobile, encoders.imu_features(imu));
  EXPECT_EQ(enc.server, encoders.rfid_features(rf));
  EXPECT_GE(enc.hold_s, 0.0);
  EXPECT_GT(enc.imu_forward_s + enc.rf_forward_s, 0.0);
}

TEST(BatchedEncoderService, CoalescesConcurrentSessions) {
  Rng rng(98);
  core::EncoderPair encoders(12, rng);
  core::BatchedEncoderConfig config;
  config.max_batch = 4;
  config.max_hold_s = 1.0;  // force the size trigger
  core::BatchedEncoderService service(encoders, config);

  std::vector<nn::Tensor> imus, rfs;
  for (int s = 0; s < 4; ++s) {
    imus.push_back(random_input({3, 200}, rng));
    rfs.push_back(random_input({2, 400}, rng));
  }

  std::vector<std::thread> threads;
  std::vector<core::EncodedLatents> results(4);
  for (int s = 0; s < 4; ++s)
    threads.emplace_back([&, s] { results[s] = service.encode(imus[s], rfs[s]); });
  for (auto& t : threads) t.join();

  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(results[s].batch_size, 4u);
    const std::vector<double> imu_serial = encoders.imu_features(imus[s]);
    ASSERT_EQ(results[s].mobile.size(), imu_serial.size());
    for (std::size_t f = 0; f < imu_serial.size(); ++f) {
      const double rel = std::fabs(results[s].mobile[f] - imu_serial[f]) /
                         std::max(1e-4, std::fabs(imu_serial[f]));
      EXPECT_LT(rel, 1e-3) << "session " << s << " latent " << f;
    }
  }
  EXPECT_EQ(service.stats().full_dispatches, 1u);
}

TEST(BatchedEncoderService, CloseDrainsHeldSessionsAndFailsFutureEncodes) {
  Rng rng(99);
  core::EncoderPair encoders(12, rng);
  core::BatchedEncoderConfig config;
  config.max_batch = 16;
  config.max_hold_s = 10.0;  // only close() can dispatch this batch
  core::BatchedEncoderService service(encoders, config);

  const nn::Tensor imu = random_input({3, 200}, rng);
  const nn::Tensor rf = random_input({2, 400}, rng);

  std::vector<std::thread> threads;
  std::vector<core::EncodedLatents> results(3);
  std::atomic<int> started{0};
  for (int s = 0; s < 3; ++s)
    threads.emplace_back([&, s] {
      started.fetch_add(1);
      results[s] = service.encode(imu, rf);
    });
  while (started.load() < 3) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  service.close();
  for (auto& t : threads) t.join();

  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(results[s].batch_size, 3u) << "held session " << s << " lost at shutdown";
    EXPECT_EQ(results[s].mobile.size(), 12u);
  }
  EXPECT_EQ(service.stats().drain_dispatches, 1u);
  EXPECT_THROW((void)service.encode(imu, rf), std::runtime_error);
}

TEST(PairingEngine, BatchedEncoderServiceIntegration) {
  // End-to-end: raw sensor tensors -> coalesced encoders -> quantize -> key
  // agreement, with the synthetic-residual knob making seeds reconcilable
  // for an untrained model. Every session must succeed without tau
  // violations and report its encode accounting.
  Rng rng(100);
  core::EncoderPair encoders(12, rng);
  core::BatchedEncoderConfig enc_config;
  enc_config.max_batch = 4;
  enc_config.max_hold_s = 500e-6;
  core::BatchedEncoderService service(encoders, enc_config);

  const core::WaveKeyConfig wk_config;
  const core::SeedQuantizer quantizer = core::SeedQuantizer::from_normal(wk_config);

  core::PairingEngineConfig engine_config;
  engine_config.threads = 4;
  engine_config.encoder_service = &service;
  engine_config.synthetic_residual_sigma = 0.03;
  core::PairingEngine engine(quantizer, engine_config);

  constexpr std::uint64_t kSessions = 32;
  for (std::uint64_t i = 0; i < kSessions; ++i) {
    core::PairingRequest request;
    request.id = i;
    request.rng_seed = 0xBA7C4 + i;
    request.imu_input = random_input({3, 200}, rng);
    request.rf_input = random_input({2, 400}, rng);
    ASSERT_TRUE(engine.submit(std::move(request)));
  }
  const std::vector<core::PairingReport> reports = engine.finish();

  ASSERT_EQ(reports.size(), kSessions);
  std::size_t successes = 0, batched = 0;
  for (const auto& report : reports) {
    EXPECT_TRUE(report.error.empty()) << report.error;
    EXPECT_FALSE(report.tau_violation);
    EXPECT_GE(report.encode_batch, 1u);  // every session went through the batcher
    EXPECT_GE(report.encode_hold_s, 0.0);
    EXPECT_GT(report.encode_s, 0.0);
    if (report.success) ++successes;
    if (report.encode_batch > 1) ++batched;
  }
  // Synthetic residual sigma=0.03 under the standard-normal quantizer keeps
  // the mismatch well inside eta: expect (near-)universal success.
  EXPECT_GE(successes, kSessions - 2);
  // With 4 workers feeding a max_batch=4 stage, at least some sessions must
  // actually coalesce.
  EXPECT_GT(batched, 0u);
  EXPECT_GE(service.stats().items, kSessions);
}

}  // namespace
}  // namespace wavekey
