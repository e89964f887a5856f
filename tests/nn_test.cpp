// Tests for the from-scratch NN framework. The backward passes are verified
// against central finite differences; training sanity is verified by fitting
// small regression problems; serialization and pruning surgery round-trip.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "nn/batchnorm.hpp"
#include "nn/conv1d.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "numeric/rng.hpp"

namespace wavekey::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng, double sigma = 1.0) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.normal(0.0, sigma));
  return t;
}

// Checks every parameter gradient and the input gradient of `layer` against
// central finite differences of the scalar loss 0.5*||forward(x)||^2.
void check_gradients(Layer& layer, const Tensor& input, bool training = true,
                     float eps = 1e-2f, float tol = 2e-2f) {
  auto loss_of = [&](const Tensor& x) -> double {
    const Tensor y = layer.forward(x, training);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += 0.5 * static_cast<double>(y[i]) * y[i];
    return l;
  };

  // Analytic gradients.
  const Tensor out = layer.forward(input, training);
  Tensor grad_out(out.shape());
  for (std::size_t i = 0; i < out.size(); ++i) grad_out[i] = out[i];
  for (Param p : layer.params()) p.grad->fill(0.0f);
  const Tensor grad_in = layer.backward(grad_out);

  // Input gradient check (sampled).
  Tensor x = input;
  for (std::size_t i = 0; i < std::min<std::size_t>(x.size(), 24); ++i) {
    const std::size_t idx = (i * 7919) % x.size();
    const float orig = x[idx];
    x[idx] = orig + eps;
    const double lp = loss_of(x);
    x[idx] = orig - eps;
    const double lm = loss_of(x);
    x[idx] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    const double analytic = grad_in[idx];
    EXPECT_NEAR(analytic, numeric, tol * (1.0 + std::abs(numeric)))
        << "input grad idx=" << idx;
  }

  // Parameter gradient check (sampled).
  for (Param p : layer.params()) {
    Tensor& w = *p.value;
    for (std::size_t i = 0; i < std::min<std::size_t>(w.size(), 16); ++i) {
      const std::size_t idx = (i * 5557) % w.size();
      const float orig = w[idx];
      w[idx] = orig + eps;
      const double lp = loss_of(input);
      w[idx] = orig - eps;
      const double lm = loss_of(input);
      w[idx] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = (*p.grad)[idx];
      EXPECT_NEAR(analytic, numeric, tol * (1.0 + std::abs(numeric)))
          << "param grad idx=" << idx;
    }
  }
}

TEST(TensorTest, ShapeAndAccessors) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(), 24u);
  t.at3(1, 2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(t[23], 5.0f);
  const Tensor r = t.reshaped({2, 12});
  EXPECT_FLOAT_EQ(r.at2(1, 11), 5.0f);
  EXPECT_THROW(t.reshaped({5, 5}), std::invalid_argument);
}

TEST(ReLUTest, ForwardZeroesNegatives) {
  ReLU relu;
  Tensor x({1, 4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.0f;
  x[3] = -0.5f;
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(ReLUTest, BackwardMasksGradient) {
  ReLU relu;
  Tensor x({1, 3});
  x[0] = -1.0f;
  x[1] = 1.0f;
  x[2] = 3.0f;
  (void)relu.forward(x, true);
  Tensor g({1, 3});
  g.fill(1.0f);
  const Tensor gi = relu.backward(g);
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 1.0f);
  EXPECT_FLOAT_EQ(gi[2], 1.0f);
}

TEST(DenseTest, ForwardKnownValues) {
  Rng rng(1);
  Dense d(2, 2, rng);
  d.weights()[0] = 1.0f;  // w(0,0)
  d.weights()[1] = 2.0f;  // w(0,1)
  d.weights()[2] = -1.0f;
  d.weights()[3] = 0.5f;
  d.bias()[0] = 0.1f;
  d.bias()[1] = -0.2f;
  Tensor x({1, 2});
  x[0] = 3.0f;
  x[1] = 4.0f;
  const Tensor y = d.forward(x, true);
  EXPECT_NEAR(y[0], 1 * 3 + 2 * 4 + 0.1, 1e-6);
  EXPECT_NEAR(y[1], -1 * 3 + 0.5 * 4 - 0.2, 1e-6);
}

TEST(DenseTest, GradientCheck) {
  Rng rng(2);
  Dense d(5, 3, rng);
  const Tensor x = random_tensor({4, 5}, rng);
  check_gradients(d, x);
}

TEST(DenseTest, RejectsWrongInputWidth) {
  Rng rng(3);
  Dense d(5, 3, rng);
  EXPECT_THROW(d.forward(Tensor({2, 4}), true), std::invalid_argument);
}

TEST(DenseTest, RemoveOutputUnitPreservesOthers) {
  Rng rng(4);
  Dense d(3, 4, rng);
  const Tensor x = random_tensor({2, 3}, rng);
  const Tensor before = d.forward(x, true);
  d.remove_output_unit(1);
  EXPECT_EQ(d.out_features(), 3u);
  const Tensor after = d.forward(x, true);
  // Outputs 0, 2, 3 (now 0, 1, 2) must be unchanged.
  EXPECT_FLOAT_EQ(after.at2(0, 0), before.at2(0, 0));
  EXPECT_FLOAT_EQ(after.at2(0, 1), before.at2(0, 2));
  EXPECT_FLOAT_EQ(after.at2(1, 2), before.at2(1, 3));
  EXPECT_THROW(d.remove_output_unit(10), std::out_of_range);
}

TEST(DenseTest, RemoveInputUnitPreservesMapOnRemainingInputs) {
  Rng rng(5);
  Dense d(4, 2, rng);
  Tensor x({1, 4});
  x[0] = 1.0f;
  x[1] = 0.0f;  // the unit to be removed carries zero input
  x[2] = -2.0f;
  x[3] = 0.5f;
  const Tensor before = d.forward(x, true);
  d.remove_input_unit(1);
  Tensor x2({1, 3});
  x2[0] = 1.0f;
  x2[1] = -2.0f;
  x2[2] = 0.5f;
  const Tensor after = d.forward(x2, true);
  EXPECT_NEAR(after[0], before[0], 1e-6);
  EXPECT_NEAR(after[1], before[1], 1e-6);
}

TEST(Conv1DTest, OutputLengthFormula) {
  Rng rng(6);
  Conv1D c(1, 1, 5, 2, 2, rng);
  EXPECT_EQ(c.output_length(200), 100u);
  Conv1D c2(1, 1, 3, 1, 0, rng);
  EXPECT_EQ(c2.output_length(10), 8u);
  EXPECT_THROW(c2.output_length(2), std::invalid_argument);
}

TEST(Conv1DTest, MatchesNaiveConvolution) {
  Rng rng(7);
  Conv1D c(2, 3, 3, 1, 1, rng);
  const Tensor x = random_tensor({1, 2, 6}, rng);
  const Tensor y = c.forward(x, true);
  ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 3, 6}));

  // Naive reference with explicit zero padding.
  std::vector<Param> ps = c.params();
  const Tensor& w = *ps[0].value;  // [3, 2, 3]
  const Tensor& b = *ps[1].value;
  for (std::size_t oc = 0; oc < 3; ++oc) {
    for (std::size_t t = 0; t < 6; ++t) {
      float acc = b[oc];
      for (std::size_t ic = 0; ic < 2; ++ic)
        for (std::size_t k = 0; k < 3; ++k) {
          const int idx = static_cast<int>(t) - 1 + static_cast<int>(k);
          if (idx >= 0 && idx < 6)
            acc += w[(oc * 2 + ic) * 3 + k] * x.at3(0, ic, static_cast<std::size_t>(idx));
        }
      EXPECT_NEAR(y.at3(0, oc, t), acc, 1e-5) << oc << "," << t;
    }
  }
}

TEST(Conv1DTest, GradientCheck) {
  Rng rng(8);
  Conv1D c(2, 4, 5, 2, 2, rng);
  const Tensor x = random_tensor({3, 2, 12}, rng);
  check_gradients(c, x);
}

TEST(ConvTranspose1DTest, OutputLengthFormula) {
  Rng rng(9);
  ConvTranspose1D d(1, 1, 4, 2, rng);
  EXPECT_EQ(d.output_length(10), 22u);
}

TEST(ConvTranspose1DTest, GradientCheck) {
  Rng rng(10);
  ConvTranspose1D d(3, 2, 4, 2, rng);
  const Tensor x = random_tensor({2, 3, 7}, rng);
  check_gradients(d, x);
}

TEST(ConvTranspose1DTest, UpsamplesDeltaToKernel) {
  Rng rng(11);
  ConvTranspose1D d(1, 1, 3, 2, rng);
  std::vector<Param> ps = d.params();
  Tensor& w = *ps[0].value;
  Tensor& b = *ps[1].value;
  w[0] = 1.0f;
  w[1] = 2.0f;
  w[2] = 3.0f;
  b[0] = 0.0f;
  Tensor x({1, 1, 2});
  x[0] = 1.0f;
  x[1] = 10.0f;
  const Tensor y = d.forward(x, true);
  ASSERT_EQ(y.dim(2), 5u);
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 2.0f);
  EXPECT_FLOAT_EQ(y[2], 3.0f + 10.0f);
  EXPECT_FLOAT_EQ(y[3], 20.0f);
  EXPECT_FLOAT_EQ(y[4], 30.0f);
}

TEST(BatchNormTest, TrainingNormalizesBatch) {
  Rng rng(12);
  BatchNorm1D bn(4);
  const Tensor x = random_tensor({64, 4}, rng, 3.0);
  const Tensor y = bn.forward(x, true);
  for (std::size_t f = 0; f < 4; ++f) {
    double m = 0.0, v = 0.0;
    for (std::size_t i = 0; i < 64; ++i) m += y.at2(i, f);
    m /= 64.0;
    for (std::size_t i = 0; i < 64; ++i) v += (y.at2(i, f) - m) * (y.at2(i, f) - m);
    v /= 64.0;
    EXPECT_NEAR(m, 0.0, 1e-5);
    EXPECT_NEAR(v, 1.0, 1e-3);
  }
}

TEST(BatchNormTest, RunningStatsConvergeAndDriveEvalMode) {
  Rng rng(13);
  BatchNorm1D bn(2, false, 0.2f);
  // Stream many batches with mean 5, std 2.
  for (int it = 0; it < 200; ++it) {
    Tensor x({32, 2});
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(5.0, 2.0));
    (void)bn.forward(x, true);
  }
  EXPECT_NEAR(bn.running_mean()[0], 5.0, 0.3);
  EXPECT_NEAR(bn.running_var()[0], 4.0, 0.6);

  // Eval mode: new data from the same distribution normalizes to ~N(0,1).
  Tensor x({256, 2});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(rng.normal(5.0, 2.0));
  const Tensor y = bn.forward(x, false);
  double m = 0.0;
  for (std::size_t i = 0; i < 256; ++i) m += y.at2(i, 0);
  EXPECT_NEAR(m / 256.0, 0.0, 0.25);
}

TEST(BatchNormTest, GradientCheckTrainingMode) {
  Rng rng(14);
  BatchNorm1D bn(3, true);
  const Tensor x = random_tensor({8, 3}, rng, 2.0);
  check_gradients(bn, x, true, 1e-2f, 5e-2f);
}

TEST(BatchNormTest, RemoveUnitShrinksState) {
  BatchNorm1D bn(5);
  bn.remove_unit(2);
  EXPECT_EQ(bn.features(), 4u);
  EXPECT_THROW(bn.remove_unit(9), std::out_of_range);
}

TEST(BatchNormTest, TinyTrainingBatchThrows) {
  BatchNorm1D bn(2);
  EXPECT_THROW(bn.forward(Tensor({1, 2}), true), std::invalid_argument);
}

TEST(LossTest, MseZeroAtTarget) {
  Tensor a({2, 2}), b({2, 2});
  a.fill(1.0f);
  b.fill(1.0f);
  const auto [loss, grad] = mse_loss(a, b);
  EXPECT_FLOAT_EQ(loss, 0.0f);
  for (std::size_t i = 0; i < grad.size(); ++i) EXPECT_FLOAT_EQ(grad[i], 0.0f);
}

TEST(LossTest, EuclideanMatchesHandComputation) {
  Tensor a({1, 3}), b({1, 3});
  a[0] = 3.0f;
  a[1] = 0.0f;
  a[2] = 4.0f;
  b.fill(0.0f);
  const auto [loss, grad] = euclidean_loss(a, b);
  EXPECT_NEAR(loss, 5.0f, 1e-6);
  EXPECT_NEAR(grad[0], 3.0 / 5.0, 1e-6);
  EXPECT_NEAR(grad[2], 4.0 / 5.0, 1e-6);
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  // Minimize 0.5*||w - target||^2 by hand-feeding gradients.
  Tensor w({4}), g({4}), target({4});
  for (int i = 0; i < 4; ++i) {
    w[i] = static_cast<float>(i);
    target[i] = 10.0f - i;
  }
  Adam opt({{&w, &g}}, 0.05f);
  for (int it = 0; it < 2000; ++it) {
    for (int i = 0; i < 4; ++i) g[i] = w[i] - target[i];
    opt.step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(w[i], target[i], 1e-2);
}

TEST(SequentialTest, TrainsSmallRegression) {
  // Fit y = x1 - 2*x2 with a two-layer net; loss must fall dramatically.
  Rng rng(15);
  Sequential net;
  net.add<Dense>(2, 16, rng);
  net.add<ReLU>();
  net.add<Dense>(16, 1, rng);
  Adam opt(net.params(), 0.01f);

  auto make_batch = [&](Tensor& x, Tensor& y) {
    x = random_tensor({32, 2}, rng);
    y = Tensor({32, 1});
    for (std::size_t i = 0; i < 32; ++i) y.at2(i, 0) = x.at2(i, 0) - 2.0f * x.at2(i, 1);
  };

  Tensor x, y;
  make_batch(x, y);
  const auto [initial_loss, g0] = mse_loss(net.forward(x, true), y);
  float last_loss = initial_loss;
  for (int it = 0; it < 600; ++it) {
    make_batch(x, y);
    const Tensor pred = net.forward(x, true);
    const auto [loss, grad] = mse_loss(pred, y);
    last_loss = loss;
    net.backward(grad);
    opt.step();
  }
  EXPECT_LT(last_loss, 0.02f * initial_loss);
}

TEST(SequentialTest, SaveLoadRoundTrip) {
  Rng rng(16);
  Sequential net;
  net.add<Conv1D>(2, 4, 3, 1, 1, rng);
  net.add<ReLU>();
  net.add<Flatten>();
  net.add<Dense>(4 * 8, 6, rng);
  net.add<BatchNorm1D>(6);

  const Tensor x = random_tensor({4, 2, 8}, rng);
  (void)net.forward(x, true);  // populate running stats
  const Tensor y1 = net.forward(x, false);

  std::stringstream ss;
  net.save(ss);

  Rng rng2(999);  // different init; weights must come from the stream
  Sequential net2;
  net2.add<Conv1D>(2, 4, 3, 1, 1, rng2);
  net2.add<ReLU>();
  net2.add<Flatten>();
  net2.add<Dense>(4 * 8, 6, rng2);
  net2.add<BatchNorm1D>(6);
  net2.load(ss);

  const Tensor y2 = net2.forward(x, false);
  ASSERT_TRUE(y1.same_shape(y2));
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(SequentialTest, LoadRejectsArchitectureMismatch) {
  Rng rng(17);
  Sequential net;
  net.add<Dense>(3, 2, rng);
  std::stringstream ss;
  net.save(ss);

  Sequential other;
  other.add<Dense>(3, 2, rng);
  other.add<ReLU>();
  EXPECT_THROW(other.load(ss), std::runtime_error);

  Sequential wrong_shape;
  wrong_shape.add<Dense>(4, 2, rng);
  std::stringstream ss2;
  net.save(ss2);
  EXPECT_THROW(wrong_shape.load(ss2), std::runtime_error);
}

TEST(SequentialTest, NumParametersCountsEverything) {
  Rng rng(18);
  Sequential net;
  net.add<Dense>(10, 5, rng);  // 55
  net.add<BatchNorm1D>(5, true);  // 10
  EXPECT_EQ(net.num_parameters(), 65u);
}

TEST(ReshapeTest, RoundTripsThroughBackward) {
  Reshape r({3, 4});
  Rng rng(19);
  const Tensor x = random_tensor({2, 12}, rng);
  const Tensor y = r.forward(x, true);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 3, 4}));
  const Tensor g = r.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
  for (std::size_t i = 0; i < g.size(); ++i) EXPECT_FLOAT_EQ(g[i], x[i]);
}

}  // namespace
}  // namespace wavekey::nn
