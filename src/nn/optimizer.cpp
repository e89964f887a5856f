#include "nn/optimizer.hpp"

#include <cmath>

namespace wavekey::nn {

Adam::Adam(std::vector<Param> params, float lr, float beta1, float beta2, float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param& p : params_) {
    m_.emplace_back(p.value->shape());
    v_.emplace_back(p.value->shape());
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Tensor& w = *params_[i].value;
    Tensor& g = *params_[i].grad;
    Tensor& m = m_[i];
    Tensor& v = v_[i];
    for (std::size_t j = 0; j < w.size(); ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float mhat = m[j] / bc1;
      const float vhat = v[j] / bc2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    g.fill(0.0f);  // gradients are consumed by the step
  }
}

}  // namespace wavekey::nn
