#include "nn/conv1d.hpp"

#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/conv_lowering.hpp"
#include "nn/gemm.hpp"
#include "runtime/compute_pool.hpp"

namespace wavekey::nn {
namespace {

float init_scale(std::size_t fan_in, std::size_t fan_out) {
  return static_cast<float>(std::sqrt(2.0 / static_cast<double>(fan_in + fan_out)));
}

// Per-sample im2col/col2im shims over the shared lowering header
// (conv_lowering.hpp, also used by the batched inference path): one
// [in_ch, lin] plane in, one [in_ch*kernel, lout] matrix out.
void im2col(const float* x, std::size_t in_ch, std::size_t lin, std::size_t kernel,
            std::size_t stride, std::size_t padding, std::size_t lout, float* cols) {
  lowering::im2col(x, in_ch, /*channel_stride=*/lin, lin, kernel, stride, padding, lout, cols,
                   /*col_stride=*/lout);
}

void col2im_add(const float* cols, std::size_t in_ch, std::size_t lin, std::size_t kernel,
                std::size_t stride, std::size_t padding, std::size_t lout, float* gx) {
  lowering::col2im_add(cols, in_ch, lin, kernel, stride, padding, lout, gx);
}

}  // namespace

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
               std::size_t stride, std::size_t padding, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      w_({out_ch_, in_ch_, kernel_}),
      b_({out_ch_}),
      w_grad_({out_ch_, in_ch_, kernel_}),
      b_grad_({out_ch_}) {
  if (kernel_ == 0 || stride_ == 0) throw std::invalid_argument("Conv1D: zero kernel/stride");
  const float s = init_scale(in_ch_ * kernel_, out_ch_ * kernel_);
  for (std::size_t i = 0; i < w_.size(); ++i) w_[i] = static_cast<float>(rng.normal(0.0, s));
}

std::size_t Conv1D::output_length(std::size_t input_length) const {
  const std::size_t padded = input_length + 2 * padding_;
  if (padded < kernel_) throw std::invalid_argument("Conv1D: input shorter than kernel");
  return (padded - kernel_) / stride_ + 1;
}

Tensor Conv1D::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 3 || input.dim(1) != in_ch_)
    throw std::invalid_argument("Conv1D::forward: expected [N, in_ch, L]");
  input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t lin = input.dim(2);
  const std::size_t lout = output_length(lin);
  const std::size_t ick = in_ch_ * kernel_;

  // im2col + GEMM lowering: the weight tensor [out_ch, in_ch, kernel] *is*
  // the row-major [out_ch, in_ch*kernel] GEMM operand, so out = W * cols
  // with the GEMM accumulating in (ic, k) order — the same reduction order
  // as the naive kernel (reference_kernels.cpp), only without the per-MAC
  // padding branch.
  Tensor out = Tensor::uninitialized({n, out_ch_, lout});
  // Per-sample data parallelism: samples write disjoint output planes, so
  // the result is identical at any pool size.
  runtime::for_each_chunk(runtime::compute_pool(), n,
                          [&](std::size_t, std::size_t s0, std::size_t s1) {
    Tensor cols = Tensor::uninitialized({ick, lout});  // per-worker scratch
    for (std::size_t s = s0; s < s1; ++s) {
      im2col(input.raw() + s * in_ch_ * lin, in_ch_, lin, kernel_, stride_, padding_, lout,
             cols.raw());
      float* y = out.raw() + s * out_ch_ * lout;
      for (std::size_t oc = 0; oc < out_ch_; ++oc)
        std::fill(y + oc * lout, y + (oc + 1) * lout, b_[oc]);
      gemm_nn(out_ch_, lout, ick, w_.raw(), ick, cols.raw(), lout, y, lout, /*accumulate=*/true);
    }
  });
  return out;
}

Tensor Conv1D::backward(const Tensor& grad_output) {
  const std::size_t n = input_.dim(0);
  const std::size_t lin = input_.dim(2);
  const std::size_t lout = output_length(lin);
  if (grad_output.rank() != 3 || grad_output.dim(0) != n || grad_output.dim(1) != out_ch_ ||
      grad_output.dim(2) != lout)
    throw std::logic_error("Conv1D::backward: shape mismatch");
  const std::size_t ick = in_ch_ * kernel_;

  Tensor grad_in({n, in_ch_, lin});  // zeroed: col2im_add accumulates
  // Chunked parameter-gradient reduction, folded in chunk order (see
  // Dense::backward); the single-chunk path is bit-identical to serial.
  const std::size_t chunks = runtime::parallel_lanes(runtime::compute_pool(), n);
  std::vector<Tensor> w_partial, b_partial;
  if (chunks > 1) {
    w_partial.assign(chunks, Tensor(w_grad_.shape()));
    b_partial.assign(chunks, Tensor(b_grad_.shape()));
  }
  runtime::for_each_chunk(
      runtime::compute_pool(), n, [&](std::size_t chunk, std::size_t s0, std::size_t s1) {
        Tensor& wg = chunks > 1 ? w_partial[chunk] : w_grad_;
        Tensor& bg = chunks > 1 ? b_partial[chunk] : b_grad_;
        Tensor cols = Tensor::uninitialized({ick, lout});   // per-worker scratch
        Tensor dcols = Tensor::uninitialized({ick, lout});
        for (std::size_t s = s0; s < s1; ++s) {
          const float* gy = grad_output.raw() + s * out_ch_ * lout;
          im2col(input_.raw() + s * in_ch_ * lin, in_ch_, lin, kernel_, stride_, padding_, lout,
                 cols.raw());
          // dW += dY * cols^T, dB += row sums of dY.
          gemm_nt(out_ch_, ick, lout, gy, lout, cols.raw(), lout, wg.raw(), ick,
                  /*accumulate=*/true);
          for (std::size_t oc = 0; oc < out_ch_; ++oc) {
            float acc = 0.0f;
            for (std::size_t t = 0; t < lout; ++t) acc += gy[oc * lout + t];
            bg[oc] += acc;
          }
          // dX = col2im(W^T * dY).
          gemm_tn(ick, lout, out_ch_, w_.raw(), ick, gy, lout, dcols.raw(), lout,
                  /*accumulate=*/false);
          col2im_add(dcols.raw(), in_ch_, lin, kernel_, stride_, padding_, lout,
                     grad_in.raw() + s * in_ch_ * lin);
        }
      });
  if (chunks > 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t i = 0; i < w_grad_.size(); ++i) w_grad_[i] += w_partial[c][i];
      for (std::size_t i = 0; i < b_grad_.size(); ++i) b_grad_[i] += b_partial[c][i];
    }
  }
  return grad_in;
}

std::vector<Param> Conv1D::params() {
  return {{&w_, &w_grad_}, {&b_, &b_grad_}};
}

void Conv1D::save(std::ostream& os) const {
  write_u64(os, in_ch_);
  write_u64(os, out_ch_);
  write_u64(os, kernel_);
  write_u64(os, stride_);
  write_u64(os, padding_);
  write_floats(os, w_.data());
  write_floats(os, b_.data());
}

void Conv1D::load(std::istream& is) {
  if (read_u64(is) != in_ch_ || read_u64(is) != out_ch_ || read_u64(is) != kernel_ ||
      read_u64(is) != stride_ || read_u64(is) != padding_)
    throw std::runtime_error("Conv1D::load: hyperparameter mismatch");
  read_floats(is, w_.data());
  read_floats(is, b_.data());
}

ConvTranspose1D::ConvTranspose1D(std::size_t in_channels, std::size_t out_channels,
                                 std::size_t kernel, std::size_t stride, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      w_({in_ch_, out_ch_, kernel_}),
      b_({out_ch_}),
      w_grad_({in_ch_, out_ch_, kernel_}),
      b_grad_({out_ch_}) {
  if (kernel_ == 0 || stride_ == 0)
    throw std::invalid_argument("ConvTranspose1D: zero kernel/stride");
  const float s = init_scale(in_ch_ * kernel_, out_ch_ * kernel_);
  for (std::size_t i = 0; i < w_.size(); ++i) w_[i] = static_cast<float>(rng.normal(0.0, s));
}

Tensor ConvTranspose1D::forward(const Tensor& input, bool /*training*/) {
  if (input.rank() != 3 || input.dim(1) != in_ch_)
    throw std::invalid_argument("ConvTranspose1D::forward: expected [N, in_ch, L]");
  input_ = input;
  const std::size_t n = input.dim(0);
  const std::size_t lin = input.dim(2);
  const std::size_t lout = output_length(lin);
  const std::size_t ock = out_ch_ * kernel_;

  // GEMM + col2im lowering: the weight tensor [in_ch, out_ch, kernel] is the
  // row-major [in_ch, out_ch*kernel] operand, so cmat = W^T * x gives every
  // (oc, k, t) contribution at once; the scatter y[oc][t*stride+k] += cmat
  // needs no bounds checks because lout = (lin-1)*stride + kernel by
  // construction.
  Tensor out = Tensor::uninitialized({n, out_ch_, lout});
  // Per-sample data parallelism (disjoint output planes, see Conv1D).
  runtime::for_each_chunk(runtime::compute_pool(), n,
                          [&](std::size_t, std::size_t s0, std::size_t s1) {
    Tensor cmat = Tensor::uninitialized({ock, lin});  // per-worker scratch
    for (std::size_t s = s0; s < s1; ++s) {
      const float* x = input.raw() + s * in_ch_ * lin;
      gemm_tn(ock, lin, in_ch_, w_.raw(), ock, x, lin, cmat.raw(), lin, /*accumulate=*/false);
      float* y = out.raw() + s * out_ch_ * lout;
      for (std::size_t oc = 0; oc < out_ch_; ++oc)
        std::fill(y + oc * lout, y + (oc + 1) * lout, b_[oc]);
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        float* yc = y + oc * lout;
        for (std::size_t k = 0; k < kernel_; ++k) {
          const float* row = cmat.raw() + (oc * kernel_ + k) * lin;
          for (std::size_t t = 0; t < lin; ++t) yc[t * stride_ + k] += row[t];
        }
      }
    }
  });
  return out;
}

Tensor ConvTranspose1D::backward(const Tensor& grad_output) {
  const std::size_t n = input_.dim(0);
  const std::size_t lin = input_.dim(2);
  const std::size_t lout = output_length(lin);
  if (grad_output.rank() != 3 || grad_output.dim(0) != n || grad_output.dim(1) != out_ch_ ||
      grad_output.dim(2) != lout)
    throw std::logic_error("ConvTranspose1D::backward: shape mismatch");
  const std::size_t ock = out_ch_ * kernel_;

  Tensor grad_in = Tensor::uninitialized({n, in_ch_, lin});  // GEMM overwrites every element
  // Chunked parameter-gradient reduction, folded in chunk order (see
  // Dense::backward); the single-chunk path is bit-identical to serial.
  const std::size_t chunks = runtime::parallel_lanes(runtime::compute_pool(), n);
  std::vector<Tensor> w_partial, b_partial;
  if (chunks > 1) {
    w_partial.assign(chunks, Tensor(w_grad_.shape()));
    b_partial.assign(chunks, Tensor(b_grad_.shape()));
  }
  runtime::for_each_chunk(
      runtime::compute_pool(), n, [&](std::size_t chunk, std::size_t s0, std::size_t s1) {
        Tensor& wg = chunks > 1 ? w_partial[chunk] : w_grad_;
        Tensor& bg = chunks > 1 ? b_partial[chunk] : b_grad_;
        // cols2[(oc*kernel + k)][t] = dY[oc][t*stride + k] — the im2col of
        // the *output* gradient; both backward products contract against it.
        Tensor cols2 = Tensor::uninitialized({ock, lin});  // per-worker scratch
        for (std::size_t s = s0; s < s1; ++s) {
          const float* x = input_.raw() + s * in_ch_ * lin;
          const float* gy = grad_output.raw() + s * out_ch_ * lout;
          for (std::size_t oc = 0; oc < out_ch_; ++oc) {
            const float* gc = gy + oc * lout;
            float acc = 0.0f;
            for (std::size_t t = 0; t < lout; ++t) acc += gc[t];
            bg[oc] += acc;
            for (std::size_t k = 0; k < kernel_; ++k) {
              float* row = cols2.raw() + (oc * kernel_ + k) * lin;
              if (stride_ == 1) {
                std::memcpy(row, gc + k, lin * sizeof(float));
              } else {
                for (std::size_t t = 0; t < lin; ++t) row[t] = gc[t * stride_ + k];
              }
            }
          }
          // dX = W * cols2  (contract over (oc, k)).
          gemm_nn(in_ch_, lin, ock, w_.raw(), ock, cols2.raw(), lin,
                  grad_in.raw() + s * in_ch_ * lin, lin, /*accumulate=*/false);
          // dW += X * cols2^T.
          gemm_nt(in_ch_, ock, lin, x, lin, cols2.raw(), lin, wg.raw(), ock,
                  /*accumulate=*/true);
        }
      });
  if (chunks > 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      for (std::size_t i = 0; i < w_grad_.size(); ++i) w_grad_[i] += w_partial[c][i];
      for (std::size_t i = 0; i < b_grad_.size(); ++i) b_grad_[i] += b_partial[c][i];
    }
  }
  return grad_in;
}

std::vector<Param> ConvTranspose1D::params() {
  return {{&w_, &w_grad_}, {&b_, &b_grad_}};
}

void ConvTranspose1D::save(std::ostream& os) const {
  write_u64(os, in_ch_);
  write_u64(os, out_ch_);
  write_u64(os, kernel_);
  write_u64(os, stride_);
  write_floats(os, w_.data());
  write_floats(os, b_.data());
}

void ConvTranspose1D::remove_input_channel(std::size_t channel) {
  if (channel >= in_ch_) throw std::out_of_range("ConvTranspose1D::remove_input_channel");
  Tensor nw({in_ch_ - 1, out_ch_, kernel_});
  std::size_t dst = 0;
  for (std::size_t ic = 0; ic < in_ch_; ++ic) {
    if (ic == channel) continue;
    for (std::size_t j = 0; j < out_ch_ * kernel_; ++j)
      nw[dst * out_ch_ * kernel_ + j] = w_[ic * out_ch_ * kernel_ + j];
    ++dst;
  }
  --in_ch_;
  w_ = std::move(nw);
  w_grad_ = Tensor({in_ch_, out_ch_, kernel_});
}

void ConvTranspose1D::load(std::istream& is) {
  if (read_u64(is) != in_ch_ || read_u64(is) != out_ch_ || read_u64(is) != kernel_ ||
      read_u64(is) != stride_)
    throw std::runtime_error("ConvTranspose1D::load: hyperparameter mismatch");
  read_floats(is, w_.data());
  read_floats(is, b_.data());
}

}  // namespace wavekey::nn
