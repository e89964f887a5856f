#pragma once

// im2col lowering shared by the Conv1D layer (per-sample forward/backward,
// conv1d.cpp) and the cross-session batched inference path
// (batched_infer.cpp, DESIGN.md §10.3). Header-only so both TUs inline the
// same closed-form edge/interior split — the packing loops are
// memcpy/strided-copy over the interior and touch the zero padding only in
// the closed-form edge ranges, never via a per-MAC bounds check.

#include <cstddef>
#include <cstring>

namespace wavekey::nn::lowering {

// Valid output-position range [t0, t1) for kernel tap offset d = k - padding:
// the positions t with 0 <= t*stride + d < lin. Everything outside reads the
// zero padding.
struct TapRange {
  std::size_t t0, t1;
};

inline TapRange tap_range(std::ptrdiff_t d, std::size_t lin, std::size_t stride,
                          std::size_t lout) {
  const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(stride);
  const std::ptrdiff_t t0 = d >= 0 ? 0 : (-d + s - 1) / s;
  const std::ptrdiff_t last_src = static_cast<std::ptrdiff_t>(lin) - 1 - d;
  const std::ptrdiff_t t1 = last_src < 0 ? 0 : last_src / s + 1;
  const std::size_t lo =
      std::min<std::size_t>(static_cast<std::size_t>(std::max<std::ptrdiff_t>(t0, 0)), lout);
  const std::size_t hi =
      std::min<std::size_t>(static_cast<std::size_t>(std::max<std::ptrdiff_t>(t1, 0)), lout);
  return {lo, std::max(lo, hi)};
}

// Packs one sample into cols with cols[(ic*kernel + k)*col_stride + t] =
// x[ic*channel_stride + t*stride + k - padding] (0 in the padding).
//
// channel_stride is the element distance between consecutive channels of
// THIS sample in x, and col_stride the row pitch of cols:
//   * per-sample layout (conv1d.cpp): channel_stride = lin, col_stride = lout
//     — x is one [in_ch, lin] plane, cols one [in_ch*kernel, lout] matrix;
//   * channel-major batched layout (batched_infer.cpp): channel_stride =
//     batch*lin, col_stride = batch*lout — x points at this sample's segment
//     inside [in_ch, batch*lin] and cols at its column block inside
//     [in_ch*kernel, batch*lout], so every sample lands in one shared GEMM
//     operand.
inline void im2col(const float* x, std::size_t in_ch, std::size_t channel_stride,
                   std::size_t lin, std::size_t kernel, std::size_t stride,
                   std::size_t padding, std::size_t lout, float* cols,
                   std::size_t col_stride) {
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    const float* xc = x + ic * channel_stride;
    for (std::size_t k = 0; k < kernel; ++k) {
      float* row = cols + (ic * kernel + k) * col_stride;
      const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(padding);
      const TapRange r = tap_range(d, lin, stride, lout);
      if (r.t0 > 0) std::memset(row, 0, r.t0 * sizeof(float));
      if (r.t1 < lout) std::memset(row + r.t1, 0, (lout - r.t1) * sizeof(float));
      if (stride == 1) {
        if (r.t1 > r.t0)
          std::memcpy(row + r.t0, xc + static_cast<std::ptrdiff_t>(r.t0) + d,
                      (r.t1 - r.t0) * sizeof(float));
      } else {
        for (std::size_t t = r.t0; t < r.t1; ++t)
          row[t] = xc[static_cast<std::ptrdiff_t>(t * stride) + d];
      }
    }
  }
}

// Scatter-adds cols [in_ch*kernel, lout] back into one sample's input
// gradient [in_ch, lin] — the adjoint of im2col (per-sample layout only;
// the batched inference path never runs backward). Rows are processed in
// (ic, k) order, so the accumulation order is a pure function of the
// shapes (deterministic).
inline void col2im_add(const float* cols, std::size_t in_ch, std::size_t lin,
                       std::size_t kernel, std::size_t stride, std::size_t padding,
                       std::size_t lout, float* gx) {
  for (std::size_t ic = 0; ic < in_ch; ++ic) {
    float* gc = gx + ic * lin;
    for (std::size_t k = 0; k < kernel; ++k) {
      const float* row = cols + (ic * kernel + k) * lout;
      const std::ptrdiff_t d = static_cast<std::ptrdiff_t>(k) - static_cast<std::ptrdiff_t>(padding);
      const TapRange r = tap_range(d, lin, stride, lout);
      for (std::size_t t = r.t0; t < r.t1; ++t)
        gc[static_cast<std::ptrdiff_t>(t * stride) + d] += row[t];
    }
  }
}

}  // namespace wavekey::nn::lowering
