#pragma once

// Cross-session batched inference over an encoder-shaped Sequential stack
// (DESIGN.md §10.3). The per-session layers run each sample as a batch of 1,
// which leaves the 4×16 FMA GEMM microkernels far below saturation: im2col
// packing is unamortized, ReLU materializes a training mask, and Dense
// re-streams its [out, in] weight matrix per sample. BatchedInference
// re-lowers the SAME parameters for B co-batched samples:
//
//   * conv stage, channel-major [C, B*L]: every sample's im2col block lands
//     in one shared [in_ch*kernel, B*lout] operand, so each conv is a single
//     GEMM with N = B*lout (full 16-wide column groups instead of B GEMMs
//     with scalar N-edges);
//   * ReLU applies in place — inference needs no mask and no copy;
//   * Flatten gathers channel-major into feature-major [F, B_pad] (B padded
//     to the 8-lane vector width, pad columns ignored);
//   * dense stage, feature-major: Yt[out, B_pad] = W·X via a narrow-N
//     broadcast-W kernel that streams the weight matrix exactly once per
//     batch; BatchNorm applies running statistics row-wise.
//
// Determinism contract (DESIGN.md §10.4): forward() with B == 1 delegates
// wholesale to Sequential::forward and is therefore bit-identical to the
// serial path. For B > 1 every output element's reduction order is a pure
// function of (architecture, B, SIMD tier) — independent of submission
// order and thread interleaving — but the batched kernels fold in a
// different fixed order than the per-sample kernels, so cross-batch-size
// comparisons hold to the same relative tolerance as the §8 kernel
// equivalence suite, not bit-exactly.
//
// All scratch comes from the thread-local tensor arena, so steady-state
// forwards perform zero heap allocations (asserted by
// MicroBatcherTest.ZeroAllocationSteadyState).
//
// Thread-safety: externally synchronized, like the Sequential it wraps —
// one forward() at a time (core::BatchedEncoderService serializes its
// flushes around this).

#include <cstddef>
#include <span>
#include <vector>

#include "nn/sequential.hpp"
#include "nn/tensor.hpp"

namespace wavekey::nn {

class Conv1D;
class Dense;
class BatchNorm1D;

class BatchedInference {
 public:
  /// Validates that `net` is a supported inference stack for inputs shaped
  /// [in_channels, in_length]: Conv1D/ReLU layers, then one Flatten, then
  /// Dense/ReLU/BatchNorm1D (affine=false) layers, with consistent shapes.
  /// Throws std::invalid_argument otherwise. Keeps a reference to `net`
  /// (and its parameter tensors) — the net must outlive this object and
  /// must not be retrained while batched forwards run.
  BatchedInference(Sequential& net, std::size_t in_channels, std::size_t in_length);

  std::size_t in_channels() const { return in_ch_; }
  std::size_t in_length() const { return in_len_; }
  std::size_t out_features() const { return out_features_; }

  /// Runs the whole stack over B co-batched samples in one pass; each input
  /// must be shaped [C, L] (or [1, C, L]). Returns [B, out_features], row s
  /// holding sample s's latent. B == 1 is routed through
  /// Sequential::forward (bit-identical to the serial path).
  Tensor forward(std::span<const Tensor* const> inputs);

 private:
  struct Op {
    enum class Kind { kConv, kRelu, kFlatten, kDense, kBatchNorm };
    Kind kind;
    // kConv (shapes fixed by in_length at construction)
    const Conv1D* conv = nullptr;
    std::size_t in_ch = 0, out_ch = 0, lin = 0, lout = 0;
    // kDense
    Dense* dense = nullptr;
    std::size_t in_f = 0, out_f = 0;
    // kBatchNorm
    const BatchNorm1D* bn = nullptr;
  };

  Sequential& net_;
  std::vector<Op> ops_;
  std::size_t in_ch_ = 0;
  std::size_t in_len_ = 0;
  std::size_t out_features_ = 0;
};

namespace detail {

// Narrow-N dense microkernel for the feature-major stage:
//   Y[M, n_pad] = W[M, K] · X[K, n_pad] + bias[M] (broadcast per row).
// n_pad must be a multiple of 8. W is streamed exactly once (broadcast-A
// FMA over 8-wide column vectors); the contraction runs in ascending k for
// every element, so the reduction order is a pure function of (M, K, n_pad)
// within a tier. The _avx2 variant delegates to _scalar on builds without
// AVX2/FMA. Exported for the differential test in micro_batcher_test.cpp.
void batched_dense_scalar(std::size_t m, std::size_t k, std::size_t n_pad, const float* w,
                          const float* x, const float* bias, float* y);
void batched_dense_avx2(std::size_t m, std::size_t k, std::size_t n_pad, const float* w,
                        const float* x, const float* bias, float* y);

// dst[i] = src[2*i] for i in [0, n): the strided-copy inner loop of im2col
// for stride-2 convs (both encoders' conv stacks), vectorized with an
// even-lane shuffle. Reads src[0 .. 2n-2] only — the vector body stops
// early enough that its 16-float loads never cross src[2n-2], so callers
// need no padding. Delegates to the scalar loop on builds without AVX2.
void copy_stride2_avx2(float* dst, const float* src, std::size_t n);

// dst[i] = src[4*i] for i in [0, n): same contract for stride-4 convs
// (RF-En's first layer). Reads src[0 .. 4n-4] only.
void copy_stride4_avx2(float* dst, const float* src, std::size_t n);

// Flatten-stage layout change, one channel at a time: transposes a
// [b, len] sample-major block (row stride len) into [len, n_pad] rows
// (row stride n_pad) and zeroes the pad columns b..n_pad-1. Full 8-sample
// groups use a register 8x8 transpose; remainders fall back to the scalar
// gather. Delegates to the scalar loop on builds without AVX2.
void flatten_transpose_avx2(const float* src, std::size_t b, std::size_t len, std::size_t n_pad,
                            float* dst);

}  // namespace detail

}  // namespace wavekey::nn
