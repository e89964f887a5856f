// Equivalence suite for the GEMM-lowered layer kernels: the optimized
// Conv1D / ConvTranspose1D / Dense forward+backward paths must match the
// naive reference kernels (nn/reference_kernels.hpp) within floating-point
// reassociation tolerance, across padding/stride/kernel edge cases and under
// a multi-worker compute pool. Also asserts the scratch-arena contract:
// steady-state encoder inference performs zero heap allocations.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/encoders.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/reference_kernels.hpp"
#include "nn/tensor.hpp"
#include "numeric/rng.hpp"
#include "runtime/compute_pool.hpp"

namespace wavekey::nn {
namespace {

constexpr float kRelTol = 1e-5f;

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal());
  return t;
}

void expect_close(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float tol = kRelTol * (1.0f + std::abs(want[i]));
    ASSERT_NEAR(got[i], want[i], tol) << what << " at index " << i;
  }
}

struct ConvCase {
  std::size_t n, in_ch, out_ch, lin, kernel, stride, padding;
};

// Edge cases: kernel == input, padding >= kernel-1 (whole taps in the
// padding), stride > kernel (skipped inputs), single-element batch and
// multi-sample batches that split across pool chunks.
const std::vector<ConvCase> kConvCases = {
    {1, 1, 1, 8, 1, 1, 0},   {1, 3, 16, 200, 7, 2, 3}, {2, 16, 24, 100, 5, 2, 2},
    {3, 2, 4, 9, 3, 1, 2},   {1, 2, 3, 5, 5, 1, 0},    {2, 3, 2, 11, 3, 4, 1},
    {5, 4, 6, 17, 4, 3, 3},  {4, 1, 2, 6, 2, 1, 1},
};

void run_conv1d_case(const ConvCase& c) {
  SCOPED_TRACE(::testing::Message() << "n=" << c.n << " in=" << c.in_ch << " out=" << c.out_ch
                                    << " L=" << c.lin << " k=" << c.kernel << " s=" << c.stride
                                    << " p=" << c.padding);
  Rng rng(42);
  Conv1D conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  const Tensor x = random_tensor({c.n, c.in_ch, c.lin}, rng);

  // Snapshot the layer's weights for the reference kernels.
  Tensor w, b;
  {
    auto ps = conv.params();
    w = *ps[0].value;
    b = *ps[1].value;
  }

  const Tensor y = conv.forward(x, true);
  const Tensor y_ref = reference::conv1d_forward(x, w, b, c.stride, c.padding);
  expect_close(y, y_ref, "conv1d forward");

  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(rng.normal());
  for (Param p : conv.params()) p.grad->fill(0.0f);
  const Tensor gx = conv.backward(gy);

  Tensor wg_ref(w.shape()), bg_ref(b.shape());
  const Tensor gx_ref = reference::conv1d_backward(x, w, gy, c.stride, c.padding, wg_ref, bg_ref);
  expect_close(gx, gx_ref, "conv1d grad_input");
  expect_close(*conv.params()[0].grad, wg_ref, "conv1d grad_w");
  expect_close(*conv.params()[1].grad, bg_ref, "conv1d grad_b");
}

TEST(KernelEquivalence, Conv1dMatchesReferenceSerial) {
  for (const auto& c : kConvCases) run_conv1d_case(c);
}

TEST(KernelEquivalence, Conv1dMatchesReferenceParallel) {
  runtime::ScopedComputePool pool(4);
  for (const auto& c : kConvCases) run_conv1d_case(c);
}

void run_conv_transpose_case(const ConvCase& c) {
  SCOPED_TRACE(::testing::Message() << "n=" << c.n << " in=" << c.in_ch << " out=" << c.out_ch
                                    << " L=" << c.lin << " k=" << c.kernel << " s=" << c.stride);
  Rng rng(43);
  ConvTranspose1D deconv(c.in_ch, c.out_ch, c.kernel, c.stride, rng);
  const Tensor x = random_tensor({c.n, c.in_ch, c.lin}, rng);

  Tensor w, b;
  {
    auto ps = deconv.params();
    w = *ps[0].value;
    b = *ps[1].value;
  }

  const Tensor y = deconv.forward(x, true);
  const Tensor y_ref = reference::conv_transpose1d_forward(x, w, b, c.stride);
  expect_close(y, y_ref, "deconv forward");

  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(rng.normal());
  for (Param p : deconv.params()) p.grad->fill(0.0f);
  const Tensor gx = deconv.backward(gy);

  Tensor wg_ref(w.shape()), bg_ref(b.shape());
  const Tensor gx_ref = reference::conv_transpose1d_backward(x, w, gy, c.stride, wg_ref, bg_ref);
  expect_close(gx, gx_ref, "deconv grad_input");
  expect_close(*deconv.params()[0].grad, wg_ref, "deconv grad_w");
  expect_close(*deconv.params()[1].grad, bg_ref, "deconv grad_b");
}

TEST(KernelEquivalence, ConvTranspose1dMatchesReferenceSerial) {
  for (const auto& c : kConvCases) run_conv_transpose_case(c);
}

TEST(KernelEquivalence, ConvTranspose1dMatchesReferenceParallel) {
  runtime::ScopedComputePool pool(4);
  for (const auto& c : kConvCases) run_conv_transpose_case(c);
}

void run_dense_case(std::size_t n, std::size_t in, std::size_t out) {
  SCOPED_TRACE(::testing::Message() << "n=" << n << " in=" << in << " out=" << out);
  Rng rng(44);
  Dense dense(in, out, rng);
  const Tensor x = random_tensor({n, in}, rng);

  Tensor w, b;
  {
    auto ps = dense.params();
    w = *ps[0].value;
    b = *ps[1].value;
  }

  const Tensor y = dense.forward(x, true);
  const Tensor y_ref = reference::dense_forward(x, w, b);
  expect_close(y, y_ref, "dense forward");

  Tensor gy(y.shape());
  for (std::size_t i = 0; i < gy.size(); ++i) gy[i] = static_cast<float>(rng.normal());
  for (Param p : dense.params()) p.grad->fill(0.0f);
  const Tensor gx = dense.backward(gy);

  Tensor wg_ref(w.shape()), bg_ref(b.shape());
  const Tensor gx_ref = reference::dense_backward(x, w, gy, wg_ref, bg_ref);
  expect_close(gx, gx_ref, "dense grad_input");
  expect_close(*dense.params()[0].grad, wg_ref, "dense grad_w");
  expect_close(*dense.params()[1].grad, bg_ref, "dense grad_b");
}

TEST(KernelEquivalence, DenseMatchesReferenceSerial) {
  run_dense_case(1, 1, 1);
  run_dense_case(1, 1200, 128);
  run_dense_case(3, 7, 5);
  run_dense_case(8, 33, 9);   // exercises GEMM edge tiles (not multiples of 4/8)
  run_dense_case(5, 128, 12);
}

TEST(KernelEquivalence, DenseMatchesReferenceParallel) {
  runtime::ScopedComputePool pool(4);
  run_dense_case(8, 33, 9);
  run_dense_case(6, 128, 12);
}

// The §7.2 determinism contract at the kernel level: a pool of size <= 1
// must produce bit-identical outputs to the fully serial path.
TEST(KernelEquivalence, PoolSizeOneBitIdenticalToSerial) {
  Rng rng(45);
  Conv1D conv(3, 8, 5, 2, 2, rng);
  const Tensor x = random_tensor({4, 3, 50}, rng);
  const Tensor serial = conv.forward(x, false);
  runtime::ScopedComputePool pool(1);
  const Tensor pooled = conv.forward(x, false);
  ASSERT_TRUE(serial.same_shape(pooled));
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], pooled[i]) << "index " << i;
}

// The zero-allocation contract of tensor.hpp: once the encoder has run a
// few warmup passes, every buffer in the forward pass is served by the
// per-thread recycling arena and the heap-allocation counter stops moving.
TEST(TensorArena, ZeroAllocationSteadyStateInference) {
  Rng rng(46);
  core::EncoderPair encoders(12, rng);
  Tensor input({3, 200});
  for (std::size_t i = 0; i < input.size(); ++i) input[i] = static_cast<float>(rng.normal());

  for (int warmup = 0; warmup < 4; ++warmup) (void)encoders.imu_features(input);

  const TensorArenaStats before = tensor_arena_stats();
  for (int i = 0; i < 16; ++i) (void)encoders.imu_features(input);
  const TensorArenaStats after = tensor_arena_stats();

  EXPECT_EQ(after.heap_allocations, before.heap_allocations)
      << "steady-state inference hit the heap (" << after.heap_bytes - before.heap_bytes
      << " fresh bytes)";
  EXPECT_GT(after.pool_reuses, before.pool_reuses);
}

}  // namespace
}  // namespace wavekey::nn
