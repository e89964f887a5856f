#pragma once

// Adam optimizer for the joint encoder/decoder training loop.
//
// Thread-safety: externally synchronized. The optimizer owns per-parameter
// Adam moments keyed to its parameter list; step() must not run
// concurrently with itself or with backward() on the same model.

#include <vector>

#include "nn/layer.hpp"

namespace wavekey::nn {

/// Adam (Kingma & Ba) with bias correction, over a fixed parameter list.
class Adam {
 public:
  Adam(std::vector<Param> params, float lr, float beta1 = 0.9f, float beta2 = 0.999f,
       float eps = 1e-8f);

  /// Applies one update from the accumulated gradients, then clears them.
  void step();

 private:
  std::vector<Param> params_;
  float lr_, beta1_, beta2_, eps_;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
};

}  // namespace wavekey::nn
