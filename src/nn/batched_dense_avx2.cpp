// AVX2/FMA narrow-N dense microkernel for the batched feature-major stage
// (batched_infer.hpp). Lives in its own TU with the vector ISA enabled, like
// gemm_avx2.cpp; the dispatcher in batched_infer.cpp only routes here when
// runtime::cpu::active_tier() reports AVX2.
//
//   Y[M, n_pad] = W[M, K] · X[K, n_pad] + bias[M]
//
// Loop order: 8-wide column group outer, 4-row W tile inner, k ascending.
// Each column group streams the full weight matrix once, so a batch of
// B <= 8 reads W exactly once (vs once per sample on the per-sample gemm_nt
// path); X (K * n_pad floats) stays cache-resident across the whole sweep.
// The per-element reduction is ascending-k FMA — a pure function of
// (M, K, n_pad), matching the determinism contract of DESIGN.md §10.4.

#include "nn/batched_infer.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace wavekey::nn::detail {

#if defined(__AVX2__) && defined(__FMA__)

void batched_dense_avx2(std::size_t m, std::size_t k, std::size_t n_pad, const float* w,
                        const float* x, const float* bias, float* y) {
  const std::size_t m4 = m / 4 * 4;
  for (std::size_t n0 = 0; n0 < n_pad; n0 += 8) {
    for (std::size_t m0 = 0; m0 < m4; m0 += 4) {
      __m256 acc0 = _mm256_broadcast_ss(bias + m0 + 0);
      __m256 acc1 = _mm256_broadcast_ss(bias + m0 + 1);
      __m256 acc2 = _mm256_broadcast_ss(bias + m0 + 2);
      __m256 acc3 = _mm256_broadcast_ss(bias + m0 + 3);
      const float* w0 = w + (m0 + 0) * k;
      const float* w1 = w + (m0 + 1) * k;
      const float* w2 = w + (m0 + 2) * k;
      const float* w3 = w + (m0 + 3) * k;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const __m256 xv = _mm256_loadu_ps(x + kk * n_pad + n0);
        acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(w0 + kk), xv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(w1 + kk), xv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(w2 + kk), xv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(w3 + kk), xv, acc3);
      }
      _mm256_storeu_ps(y + (m0 + 0) * n_pad + n0, acc0);
      _mm256_storeu_ps(y + (m0 + 1) * n_pad + n0, acc1);
      _mm256_storeu_ps(y + (m0 + 2) * n_pad + n0, acc2);
      _mm256_storeu_ps(y + (m0 + 3) * n_pad + n0, acc3);
    }
    // m % 4 edge rows: one vector accumulator each, same ascending-k order.
    for (std::size_t mi = m4; mi < m; ++mi) {
      __m256 acc = _mm256_broadcast_ss(bias + mi);
      const float* wr = w + mi * k;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(wr + kk), _mm256_loadu_ps(x + kk * n_pad + n0),
                              acc);
      _mm256_storeu_ps(y + mi * n_pad + n0, acc);
    }
  }
}

// Even elements of the 16-float sequence [a | b], in ascending order. The
// shuffle gives even lanes per 128-bit half ([x0,x2,x8,x10 | x4,x6,x12,x14]);
// the cross-lane permute restores ascending order.
static inline __m256 even_lanes(__m256 a, __m256 b) {
  const __m256 s = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_permutevar8x32_ps(s, _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7));
}

void copy_stride2_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  // Each step loads src[2i .. 2i+15]; i + 9 <= n keeps the last load at
  // src[2n-3], inside the caller-guaranteed src[0 .. 2n-2] extent.
  for (; i + 9 <= n; i += 8)
    _mm256_storeu_ps(dst + i, even_lanes(_mm256_loadu_ps(src + 2 * i),
                                         _mm256_loadu_ps(src + 2 * i + 8)));
  for (; i < n; ++i) dst[i] = src[2 * i];
}

void copy_stride4_avx2(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  // Stride 4 = stride 2 applied twice. Each step loads src[4i .. 4i+31];
  // i + 9 <= n keeps the last load at src[4n-5], inside the
  // caller-guaranteed src[0 .. 4n-4] extent.
  for (; i + 9 <= n; i += 8) {
    const __m256 a = _mm256_loadu_ps(src + 4 * i);
    const __m256 b = _mm256_loadu_ps(src + 4 * i + 8);
    const __m256 c = _mm256_loadu_ps(src + 4 * i + 16);
    const __m256 d = _mm256_loadu_ps(src + 4 * i + 24);
    _mm256_storeu_ps(dst + i, even_lanes(even_lanes(a, b), even_lanes(c, d)));
  }
  for (; i < n; ++i) dst[i] = src[4 * i];
}

void flatten_transpose_avx2(const float* src, std::size_t b, std::size_t len, std::size_t n_pad,
                            float* dst) {
  // Full 8-sample groups go through a register 8x8 transpose: the scalar
  // loop is a strided gather (one cache-line hop per element, ~1 elem/cycle)
  // and this transpose is the second-largest non-GEMM cost of a batched
  // forward. Standard unpack/shuffle/permute2f128 butterfly: o[i] holds
  // column t+i of rows g..g+7.
  std::size_t g = 0;
  for (; g + 8 <= b; g += 8) {
    std::size_t t = 0;
    for (; t + 8 <= len; t += 8) {
      const float* s0 = src + g * len + t;
      const __m256 r0 = _mm256_loadu_ps(s0 + 0 * len);
      const __m256 r1 = _mm256_loadu_ps(s0 + 1 * len);
      const __m256 r2 = _mm256_loadu_ps(s0 + 2 * len);
      const __m256 r3 = _mm256_loadu_ps(s0 + 3 * len);
      const __m256 r4 = _mm256_loadu_ps(s0 + 4 * len);
      const __m256 r5 = _mm256_loadu_ps(s0 + 5 * len);
      const __m256 r6 = _mm256_loadu_ps(s0 + 6 * len);
      const __m256 r7 = _mm256_loadu_ps(s0 + 7 * len);
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
      const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
      const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
      const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
      const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
      const __m256 u0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
      const __m256 u6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
      const __m256 u7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
      float* d0 = dst + t * n_pad + g;
      _mm256_storeu_ps(d0 + 0 * n_pad, _mm256_permute2f128_ps(u0, u4, 0x20));
      _mm256_storeu_ps(d0 + 1 * n_pad, _mm256_permute2f128_ps(u1, u5, 0x20));
      _mm256_storeu_ps(d0 + 2 * n_pad, _mm256_permute2f128_ps(u2, u6, 0x20));
      _mm256_storeu_ps(d0 + 3 * n_pad, _mm256_permute2f128_ps(u3, u7, 0x20));
      _mm256_storeu_ps(d0 + 4 * n_pad, _mm256_permute2f128_ps(u0, u4, 0x31));
      _mm256_storeu_ps(d0 + 5 * n_pad, _mm256_permute2f128_ps(u1, u5, 0x31));
      _mm256_storeu_ps(d0 + 6 * n_pad, _mm256_permute2f128_ps(u2, u6, 0x31));
      _mm256_storeu_ps(d0 + 7 * n_pad, _mm256_permute2f128_ps(u3, u7, 0x31));
    }
    for (; t < len; ++t)  // position tail of a full sample group
      for (std::size_t s = 0; s < 8; ++s) dst[t * n_pad + g + s] = src[(g + s) * len + t];
  }
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t s = g; s < b; ++s) dst[t * n_pad + s] = src[s * len + t];
    for (std::size_t s = b; s < n_pad; ++s) dst[t * n_pad + s] = 0.0f;
  }
}

#else  // target built without AVX2/FMA: keep the symbols, delegate.

void batched_dense_avx2(std::size_t m, std::size_t k, std::size_t n_pad, const float* w,
                        const float* x, const float* bias, float* y) {
  batched_dense_scalar(m, k, n_pad, w, x, bias, y);
}

void copy_stride2_avx2(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[2 * i];
}

void copy_stride4_avx2(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[4 * i];
}

void flatten_transpose_avx2(const float* src, std::size_t b, std::size_t len, std::size_t n_pad,
                            float* dst) {
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t s = 0; s < b; ++s) dst[t * n_pad + s] = src[s * len + t];
    for (std::size_t s = b; s < n_pad; ++s) dst[t * n_pad + s] = 0.0f;
  }
}

#endif

}  // namespace wavekey::nn::detail
