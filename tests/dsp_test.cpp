// Tests for the DSP substrate: Savitzky-Golay filtering, phase unwrapping,
// resampling, gesture-start detection, and Gray coding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp/gesture_detect.hpp"
#include "dsp/gray_code.hpp"
#include "dsp/phase_unwrap.hpp"
#include "dsp/resample.hpp"
#include "dsp/savitzky_golay.hpp"
#include "numeric/rng.hpp"
#include "numeric/stats.hpp"

namespace wavekey::dsp {
namespace {

TEST(SavitzkyGolayTest, RejectsBadParameters) {
  EXPECT_THROW(SavitzkyGolayFilter(4, 2), std::invalid_argument);  // even window
  EXPECT_THROW(SavitzkyGolayFilter(1, 0), std::invalid_argument);  // too short
  EXPECT_THROW(SavitzkyGolayFilter(5, 5), std::invalid_argument);  // order >= window
}

TEST(SavitzkyGolayTest, CenterCoefficientsSumToOne) {
  for (std::size_t w : {5u, 7u, 9u, 11u}) {
    for (std::size_t o : {2u, 3u}) {
      const SavitzkyGolayFilter f(w, o);
      double s = 0.0;
      for (double c : f.coefficients()) s += c;
      EXPECT_NEAR(s, 1.0, 1e-10) << "window=" << w << " order=" << o;
    }
  }
}

TEST(SavitzkyGolayTest, ReproducesPolynomialsExactly) {
  // A filter of order p must pass any degree-<=p polynomial unchanged,
  // including at the edges (we fit, not pad).
  const SavitzkyGolayFilter f(9, 3);
  std::vector<double> xs(50);
  for (int i = 0; i < 50; ++i) {
    const double t = i * 0.1;
    xs[i] = 2.0 - 1.5 * t + 0.3 * t * t + 0.01 * t * t * t;
  }
  const auto ys = f.apply(xs);
  for (int i = 0; i < 50; ++i) EXPECT_NEAR(ys[i], xs[i], 1e-9) << "i=" << i;
}

TEST(SavitzkyGolayTest, ReducesNoiseOnSmoothSignal) {
  Rng rng(13);
  std::vector<double> clean(400), noisy(400);
  for (int i = 0; i < 400; ++i) {
    clean[i] = std::sin(2.0 * std::numbers::pi * i / 100.0);
    noisy[i] = clean[i] + rng.normal(0.0, 0.2);
  }
  const SavitzkyGolayFilter f(11, 2);
  const auto smoothed = f.apply(noisy);
  double err_noisy = 0.0, err_smoothed = 0.0;
  for (int i = 0; i < 400; ++i) {
    err_noisy += (noisy[i] - clean[i]) * (noisy[i] - clean[i]);
    err_smoothed += (smoothed[i] - clean[i]) * (smoothed[i] - clean[i]);
  }
  EXPECT_LT(err_smoothed, 0.35 * err_noisy);
}

TEST(SavitzkyGolayTest, PreservesLocalExtremaBetterThanMovingAverage) {
  // The paper picks SG precisely because it keeps peaks; check the peak of a
  // narrow bump survives better than under a boxcar of the same width.
  std::vector<double> xs(101, 0.0);
  for (int i = 0; i < 101; ++i) xs[i] = std::exp(-0.5 * std::pow((i - 50) / 4.0, 2));
  const SavitzkyGolayFilter sg(11, 3);
  const auto sg_out = sg.apply(xs);

  std::vector<double> box_out(101, 0.0);
  for (int i = 5; i < 96; ++i) {
    double s = 0.0;
    for (int j = -5; j <= 5; ++j) s += xs[i + j];
    box_out[i] = s / 11.0;
  }
  EXPECT_GT(sg_out[50], box_out[50]);
  EXPECT_NEAR(sg_out[50], 1.0, 0.05);
}

TEST(SavitzkyGolayTest, ShortInputDegradesToIdentity) {
  const SavitzkyGolayFilter f(9, 2);
  const std::vector<double> xs{1.0, 2.0, 3.0};
  EXPECT_EQ(f.apply(xs), xs);
}

TEST(PhaseUnwrapTest, RecoversLinearRamp) {
  // A tag moving away produces a steadily growing phase; wrapped it sawtooths.
  std::vector<double> truth(300), wrapped(300);
  for (int i = 0; i < 300; ++i) {
    truth[i] = 0.05 * i;
    wrapped[i] = wrap_phase(truth[i]);
  }
  const auto unwrapped = unwrap_phase(wrapped);
  for (int i = 0; i < 300; ++i)
    EXPECT_NEAR(unwrapped[i] - unwrapped[0], truth[i] - truth[0], 1e-9);
}

TEST(PhaseUnwrapTest, HandlesBothDirectionsAndMultipleWraps) {
  Rng rng(17);
  std::vector<double> truth(500), wrapped(500);
  double phase = 0.0;
  for (int i = 0; i < 500; ++i) {
    phase += rng.uniform(-2.5, 2.5);  // steps under pi in magnitude after unwrap? no: up to 2.5
    truth[i] = phase;
    wrapped[i] = wrap_phase(phase);
  }
  // Steps can exceed pi here, so reconstruction is only guaranteed when the
  // per-step change stays in (-pi, pi); re-generate under that constraint.
  phase = 0.0;
  for (int i = 0; i < 500; ++i) {
    phase += rng.uniform(-3.0, 3.0) * 0.9;  // |step| < pi
    truth[i] = phase;
    wrapped[i] = wrap_phase(phase);
  }
  const auto unwrapped = unwrap_phase(wrapped);
  for (int i = 0; i < 500; ++i)
    EXPECT_NEAR(unwrapped[i] - unwrapped[0], truth[i] - truth[0], 1e-9) << i;
}

TEST(PhaseUnwrapTest, WrapPhaseInRange) {
  for (double p : {-10.0, -3.2, 0.0, 1.0, 6.3, 100.0}) {
    const double w = wrap_phase(p);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 2.0 * std::numbers::pi);
    EXPECT_NEAR(std::remainder(w - p, 2.0 * std::numbers::pi), 0.0, 1e-9);
  }
}

TEST(ResampleTest, LinearInterpolationExactOnLines) {
  const std::vector<double> ts{0, 1, 2, 3};
  const std::vector<double> xs{0, 2, 4, 6};
  const std::vector<double> q{0.5, 1.25, 2.75};
  const auto out = interp_linear(ts, xs, q);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.5);
  EXPECT_DOUBLE_EQ(out[2], 5.5);
}

TEST(ResampleTest, ClampsOutOfRangeQueries) {
  const std::vector<double> ts{0, 1};
  const std::vector<double> xs{5, 7};
  const auto out = interp_linear(ts, xs, std::vector<double>{-1.0, 2.0});
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(ResampleTest, RejectsMalformedSeries) {
  const std::vector<double> q{0.5};
  EXPECT_THROW(interp_linear({{0, 0}}, {{1, 2}}, q), std::invalid_argument);
  EXPECT_THROW(interp_linear({{0, 1}}, {{1}}, q), std::invalid_argument);
  EXPECT_THROW(interp_linear({}, {}, q), std::invalid_argument);
}

// The rolling-cursor fast path must be invisible: any query order — strictly
// monotone, repeated values, backwards jumps, clamps interleaved with
// interior points — gives exactly the per-query binary-search answer.
TEST(ResampleTest, CursorOrderIndependence) {
  std::vector<double> ts(64), xs(64);
  Rng rng(20240806);
  double t = 0.0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    t += 0.01 + 0.2 * rng.uniform();
    ts[i] = t;
    xs[i] = rng.normal();
  }
  // Shuffled interior + clamped queries, plus a sorted copy of the same set.
  std::vector<double> shuffled;
  for (int i = 0; i < 200; ++i)
    shuffled.push_back(ts.front() - 0.5 + (ts.back() - ts.front() + 1.0) * rng.uniform());
  shuffled.push_back(ts.front());
  shuffled.push_back(ts.back() + 1.0);
  shuffled.push_back(ts[10]);  // exact knot
  shuffled.push_back(ts[10]);  // repeated query
  std::vector<double> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());

  for (const auto* queries : {&shuffled, &sorted}) {
    const auto lin = interp_linear(ts, xs, *queries);
    const auto cub = interp_cubic(ts, xs, *queries);
    ASSERT_EQ(lin.size(), queries->size());
    for (std::size_t i = 0; i < queries->size(); ++i) {
      // Single-query call never uses a warmed cursor: the oracle.
      const std::vector<double> one{(*queries)[i]};
      EXPECT_DOUBLE_EQ(lin[i], interp_linear(ts, xs, one)[0]) << "linear, query " << i;
      EXPECT_DOUBLE_EQ(cub[i], interp_cubic(ts, xs, one)[0]) << "cubic, query " << i;
    }
  }
}

TEST(ResampleTest, CubicBeatsLinearOnSmoothCurves) {
  std::vector<double> ts(20), xs(20);
  for (int i = 0; i < 20; ++i) {
    ts[i] = i * 0.25;
    xs[i] = std::sin(ts[i]);
  }
  std::vector<double> q(77);
  for (int i = 0; i < 77; ++i) q[i] = 0.3 + i * 0.055;
  const auto lin = interp_linear(ts, xs, q);
  const auto cub = interp_cubic(ts, xs, q);
  double err_lin = 0.0, err_cub = 0.0;
  for (std::size_t i = 0; i < q.size(); ++i) {
    err_lin += std::abs(lin[i] - std::sin(q[i]));
    err_cub += std::abs(cub[i] - std::sin(q[i]));
  }
  EXPECT_LT(err_cub, 0.2 * err_lin);
}

TEST(ResampleTest, UniformGridSpacing) {
  const auto ts = uniform_grid(1.0, 100.0, 5);
  ASSERT_EQ(ts.size(), 5u);
  EXPECT_DOUBLE_EQ(ts[0], 1.0);
  EXPECT_DOUBLE_EQ(ts[4], 1.04);
}

TEST(GestureDetectTest, MovingVarianceMatchesDirectComputation) {
  Rng rng(19);
  std::vector<double> xs(50);
  for (auto& x : xs) x = rng.uniform(-1, 1);
  const auto mv = moving_variance(xs, 8);
  ASSERT_EQ(mv.size(), 43u);
  for (std::size_t i = 0; i < mv.size(); ++i) {
    const std::span<const double> win(xs.data() + i, 8);
    EXPECT_NEAR(mv[i], variance(win), 1e-10);
  }
}

TEST(GestureDetectTest, DetectsVarianceJump) {
  Rng rng(23);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.normal(0.0, 0.01));  // idle pause
  for (int i = 0; i < 100; ++i) xs.push_back(rng.normal(0.0, 1.0));   // gesture
  const auto start = detect_gesture_start(xs);
  ASSERT_TRUE(start.has_value());
  EXPECT_GE(*start, 85u);
  EXPECT_LE(*start, 105u);
}

TEST(GestureDetectTest, NoDetectionOnIdleSignal) {
  Rng rng(29);
  std::vector<double> xs(300);
  for (auto& x : xs) x = rng.normal(0.0, 0.01);
  EXPECT_FALSE(detect_gesture_start(xs).has_value());
}

TEST(GestureDetectTest, EmptyAndTinySignals) {
  EXPECT_FALSE(detect_gesture_start({}).has_value());
  const std::vector<double> tiny{1.0, 2.0};
  EXPECT_FALSE(detect_gesture_start(tiny).has_value());
}

TEST(GrayCodeTest, AdjacentCodesDifferInOneBit) {
  for (std::uint32_t i = 0; i + 1 < 256; ++i) {
    const std::uint32_t d = gray_encode(i) ^ gray_encode(i + 1);
    EXPECT_EQ(d & (d - 1), 0u) << i;  // power of two => single bit
    EXPECT_NE(d, 0u);
  }
}

TEST(GrayCodeTest, EncodeDecodeRoundTrip) {
  for (std::uint32_t i = 0; i < 4096; ++i) EXPECT_EQ(gray_decode(gray_encode(i)), i);
}

TEST(GrayCodeTest, BitsRepresentation) {
  const BitVec b = gray_bits(2, 3);  // gray(2) = 3 = 0b011
  EXPECT_EQ(b.to_string(), "110");   // LSB first
  EXPECT_THROW(gray_bits(200, 3), std::invalid_argument);
}

}  // namespace
}  // namespace wavekey::dsp
