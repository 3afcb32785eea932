// Tests for the NN layer framework: forward correctness on known values and
// finite-difference gradient checks for every layer.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/thread_pool.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/im2col.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::CheckGradients;

TEST(ParameterTest, FlattenRoundTrip) {
  Rng rng(1);
  Parameter a("a", Tensor::Randn({2, 3}, rng));
  Parameter b("b", Tensor::Randn({4}, rng));
  std::vector<Parameter*> params = {&a, &b};
  EXPECT_EQ(TotalParameterCount(params), 10);
  const Tensor flat = FlattenValues(params);
  Parameter a2("a", Tensor::Zeros({2, 3}));
  Parameter b2("b", Tensor::Zeros({4}));
  std::vector<Parameter*> params2 = {&a2, &b2};
  SetValuesFromFlat(params2, flat);
  EXPECT_TRUE(AllClose(a2.value, a.value));
  EXPECT_TRUE(AllClose(b2.value, b.value));
}

TEST(ParameterTest, ApplyFlatUpdate) {
  Parameter a("a", Tensor::Vector({1, 2}));
  std::vector<Parameter*> params = {&a};
  ApplyFlatUpdate(params, Tensor::Vector({10, 20}), 0.1);
  EXPECT_NEAR(a.value[0], 0.0f, 1e-6);
  EXPECT_NEAR(a.value[1], 0.0f, 1e-6);
}

TEST(ParameterTest, ZeroGradients) {
  Parameter a("a", Tensor::Vector({1}));
  a.grad[0] = 5.0f;
  std::vector<Parameter*> params = {&a};
  ZeroGradients(params);
  EXPECT_EQ(a.grad[0], 0.0f);
}

TEST(InitTest, KaimingBound) {
  Rng rng(2);
  const Tensor w = KaimingUniform({100, 50}, 50, rng);
  const float bound = std::sqrt(6.0f / 50.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_GE(w[i], -bound);
    EXPECT_LT(w[i], bound);
  }
}

TEST(LinearTest, ForwardKnownValues) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  layer.weight().value = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  layer.bias().value = Tensor::Vector({0.5f, -0.5f});
  const Tensor x = Tensor::FromVector({1, 2}, {1, 1});
  const Tensor y = layer.Forward(x);
  EXPECT_NEAR(y[0], 3.5f, 1e-6);  // 1*1 + 2*1 + 0.5
  EXPECT_NEAR(y[1], 6.5f, 1e-6);  // 3*1 + 4*1 - 0.5
}

TEST(LinearTest, GradientCheck) {
  Rng rng(5);
  Linear layer(5, 3, rng);
  const Tensor x = Tensor::Randn({4, 5}, rng);
  const auto result = CheckGradients(layer, x, rng);
  EXPECT_LT(result.max_input_error, 1e-2);
  EXPECT_LT(result.max_param_error, 1e-2);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(6);
  Linear layer(3, 2, rng, /*with_bias=*/false);
  EXPECT_EQ(layer.Parameters().size(), 1u);
  const Tensor x = Tensor::Randn({2, 3}, rng);
  const auto result = CheckGradients(layer, x, rng);
  EXPECT_LT(result.max_param_error, 1e-2);
}

TEST(Conv2dTest, ForwardIdentityKernel) {
  Rng rng(7);
  Conv2d layer(1, 1, 1, rng, /*padding=*/0);
  layer.Parameters()[0]->value.Fill(1.0f);  // 1x1 kernel of 1
  layer.Parameters()[1]->value.Fill(0.0f);
  const Tensor x = Tensor::Randn({1, 1, 4, 4}, rng);
  const Tensor y = layer.Forward(x);
  EXPECT_TRUE(AllClose(y, x));
}

TEST(Conv2dTest, ForwardKnownSum) {
  Rng rng(8);
  Conv2d layer(1, 1, 3, rng, /*padding=*/0);
  layer.Parameters()[0]->value.Fill(1.0f);  // 3x3 box filter
  layer.Parameters()[1]->value.Fill(0.0f);
  Tensor x = Tensor::Full({1, 1, 3, 3}, 2.0f);
  const Tensor y = layer.Forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_NEAR(y[0], 18.0f, 1e-5);
}

TEST(Conv2dTest, PaddingKeepsSize) {
  Rng rng(9);
  Conv2d layer(2, 3, 3, rng, /*padding=*/1);
  const Tensor x = Tensor::Randn({2, 2, 6, 6}, rng);
  const Tensor y = layer.Forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
  EXPECT_EQ(y.dim(2), 6);
  EXPECT_EQ(y.dim(3), 6);
}

TEST(Conv2dTest, GradientCheckNoPadding) {
  Rng rng(10);
  Conv2d layer(2, 2, 3, rng, /*padding=*/0);
  const Tensor x = Tensor::Randn({2, 2, 5, 5}, rng);
  const auto result = CheckGradients(layer, x, rng);
  EXPECT_LT(result.max_input_error, 2e-2);
  EXPECT_LT(result.max_param_error, 2e-2);
}

TEST(Conv2dTest, GradientCheckWithPadding) {
  Rng rng(11);
  Conv2d layer(1, 2, 3, rng, /*padding=*/1);
  const Tensor x = Tensor::Randn({1, 1, 4, 4}, rng);
  const auto result = CheckGradients(layer, x, rng);
  EXPECT_LT(result.max_input_error, 2e-2);
  EXPECT_LT(result.max_param_error, 2e-2);
}

TEST(MaxPoolTest, ForwardSelectsMax) {
  MaxPool2d pool(2);
  const Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 5.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  const Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 5, 3, 2});
  pool.Forward(x);
  const Tensor gy = Tensor::FromVector({1, 1, 1, 1}, {7});
  const Tensor gx = pool.Backward(gy);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 7.0f);
  EXPECT_EQ(gx[2], 0.0f);
}

TEST(MaxPoolTest, GradientCheck) {
  Rng rng(12);
  MaxPool2d pool(2);
  const Tensor x = Tensor::Randn({2, 2, 4, 4}, rng);
  const auto result = CheckGradients(pool, x, rng, /*epsilon=*/1e-4);
  EXPECT_LT(result.max_input_error, 5e-2);
}

TEST(GlobalAvgPoolTest, ForwardAveragesPlane) {
  GlobalAvgPool pool;
  const Tensor x = Tensor::FromVector({1, 2, 2, 2}, {1, 2, 3, 4, 8, 8, 8, 8});
  const Tensor y = pool.Forward(x);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_NEAR(y[0], 2.5f, 1e-6);
  EXPECT_NEAR(y[1], 8.0f, 1e-6);
}

TEST(GlobalAvgPoolTest, GradientCheck) {
  Rng rng(13);
  GlobalAvgPool pool;
  const Tensor x = Tensor::Randn({2, 3, 4, 4}, rng);
  const auto result = CheckGradients(pool, x, rng);
  EXPECT_LT(result.max_input_error, 1e-2);
}

TEST(ReLUTest, ForwardZeroesNegatives) {
  ReLU relu;
  const Tensor x = Tensor::Vector({-1, 0, 2});
  const Tensor y = relu.Forward(x);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
}

TEST(ReLUTest, GradientCheck) {
  Rng rng(14);
  ReLU relu;
  // Keep inputs away from the kink for a clean finite-difference check.
  Tensor x = Tensor::Randn({3, 7}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.5f;
  }
  const auto result = CheckGradients(relu, x, rng, /*epsilon=*/1e-3);
  EXPECT_LT(result.max_input_error, 1e-2);
}

TEST(FlattenTest, RoundTripShapes) {
  Flatten flatten;
  Rng rng(16);
  const Tensor x = Tensor::Randn({2, 3, 4, 5}, rng);
  const Tensor y = flatten.Forward(x);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 60);
  const Tensor gx = flatten.Backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogK) {
  SoftmaxCrossEntropy loss;
  const Tensor logits({2, 4});
  const double value = loss.Forward(logits, {0, 3});
  EXPECT_NEAR(value, std::log(4.0), 1e-6);
}

TEST(SoftmaxCrossEntropyTest, ProbabilitiesSumToOne) {
  SoftmaxCrossEntropy loss;
  Rng rng(17);
  const Tensor logits = Tensor::Randn({3, 5}, rng, 3.0f);
  loss.Forward(logits, {0, 1, 2});
  const Tensor& probs = loss.probabilities();
  for (int64_t b = 0; b < 3; ++b) {
    double row = 0.0;
    for (int64_t k = 0; k < 5; ++k)
      row += static_cast<double>(probs[b * 5 + k]);
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(SoftmaxCrossEntropyTest, GradientRowsSumToZero) {
  SoftmaxCrossEntropy loss;
  Rng rng(18);
  const Tensor logits = Tensor::Randn({4, 6}, rng);
  loss.Forward(logits, {0, 1, 2, 3});
  const Tensor grad = loss.Backward();
  for (int64_t b = 0; b < 4; ++b) {
    double row = 0.0;
    for (int64_t k = 0; k < 6; ++k)
      row += static_cast<double>(grad[b * 6 + k]);
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropyTest, NumericalGradient) {
  SoftmaxCrossEntropy loss;
  Rng rng(19);
  Tensor logits = Tensor::Randn({2, 3}, rng);
  const std::vector<int64_t> labels = {1, 2};
  loss.Forward(logits, labels);
  const Tensor analytic = loss.Backward();
  const double eps = 1e-3;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(eps);
    const double up = loss.Forward(logits, labels);
    logits[i] = saved - static_cast<float>(eps);
    const double down = loss.Forward(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR((up - down) / (2 * eps), analytic[i], 1e-3);
  }
}

TEST(SoftmaxCrossEntropyTest, ExtremLogitsAreStable) {
  SoftmaxCrossEntropy loss;
  const Tensor logits = Tensor::FromVector({1, 3}, {1000.0f, -1000.0f, 0.0f});
  const double value = loss.Forward(logits, {0});
  EXPECT_NEAR(value, 0.0, 1e-6);
  EXPECT_TRUE(std::isfinite(loss.Forward(logits, {1})));
}

TEST(SequentialTest, ChainsLayers) {
  Rng rng(20);
  Sequential net("test");
  net.Emplace<Linear>(4, 3, rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(3, 2, rng);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.Parameters().size(), 4u);
  const Tensor x = Tensor::Randn({5, 4}, rng);
  const Tensor y = net.Forward(x);
  EXPECT_EQ(y.dim(1), 2);
}

TEST(SequentialTest, GradientCheck) {
  Rng rng(21);
  Sequential net;
  net.Emplace<Linear>(4, 6, rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(6, 2, rng);
  const Tensor x = Tensor::Randn({3, 4}, rng);
  const auto result = CheckGradients(net, x, rng);
  EXPECT_LT(result.max_input_error, 2e-2);
  EXPECT_LT(result.max_param_error, 2e-2);
}

TEST(ResidualBlockTest, PreservesShape) {
  Rng rng(22);
  ResidualBlock block(4, rng);
  const Tensor x = Tensor::Randn({2, 4, 6, 6}, rng);
  const Tensor y = block.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(ResidualBlockTest, HasTwoConvsOfParameters) {
  Rng rng(23);
  ResidualBlock block(4, rng);
  EXPECT_EQ(block.Parameters().size(), 4u);  // two convs x (weight, bias)
}

TEST(ResidualBlockTest, GradientCheck) {
  Rng rng(24);
  ResidualBlock block(2, rng);
  const Tensor x = Tensor::Randn({1, 2, 4, 4}, rng);
  const auto result = CheckGradients(block, x, rng, /*epsilon=*/1e-3);
  EXPECT_LT(result.max_input_error, 5e-2);
  EXPECT_LT(result.max_param_error, 5e-2);
}

TEST(ResidualBlockTest, IdentityPathDominatesWithZeroWeights) {
  Rng rng(25);
  ResidualBlock block(2, rng);
  for (Parameter* p : block.Parameters()) p->value.Fill(0.0f);
  Tensor x = Tensor::Full({1, 2, 4, 4}, 1.5f);
  const Tensor y = block.Forward(x);
  // F(x) = 0, so out = ReLU(x) = x for positive x.
  EXPECT_TRUE(AllClose(y, x));
}

// ------------------------------------------- bit-exact per-sample layer path
//
// The layers below sit on every sample's forward and backward pass. These
// tests pin them to test-local copies of the loops they were first written
// as, bit for bit, on the inputs where a rewrite most easily drifts: NaN,
// signed zeros, infinities, ties and all-negative windows.

// Index of the first element whose bits differ, or -1.
int64_t FirstBitMismatch(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) return 0;
  for (int64_t i = 0; i < got.numel(); ++i) {
    const float g = got[i], w = want[i];
    if (std::memcmp(&g, &w, sizeof(float)) != 0) return i;
  }
  return -1;
}

// NaN, signed zeros, infinities and subnormals first, then N(0, 1) draws.
Tensor SpecialValues(std::vector<int64_t> shape, uint64_t seed) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan,
                            -nan,
                            0.0f,
                            -0.0f,
                            kInf,
                            -kInf,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest(),
                            1.0f,
                            -1.0f};
  Rng rng(seed);
  Tensor x = Tensor::Randn(std::move(shape), rng);
  for (int64_t i = 0; i < x.numel() && i < 12; ++i) x[i] = specials[i];
  return x;
}

// The historical ReLU forward: a branch per element.
Tensor HistoricalRelu(const Tensor& input, Tensor& mask) {
  mask = Tensor(input.shape());
  Tensor output = input;
  for (int64_t i = 0; i < output.numel(); ++i) {
    if (output[i] > 0.0f) {
      mask[i] = 1.0f;
    } else {
      output[i] = 0.0f;
    }
  }
  return output;
}

// The historical MaxPool2d forward: the first element seeds the window's
// best, and only a strictly greater element replaces it.
Tensor HistoricalMaxPool(const Tensor& input, int64_t window,
                         std::vector<int64_t>& argmax) {
  const int64_t batch = input.dim(0), channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = in_h / window, out_w = in_w / window;
  Tensor output({batch, channels, out_h, out_w});
  argmax.assign(static_cast<size_t>(output.numel()), 0);
  int64_t out_index = 0;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          int64_t best_index = -1;
          float best = 0.0f;
          for (int64_t kh = 0; kh < window; ++kh) {
            for (int64_t kw = 0; kw < window; ++kw) {
              const int64_t xi =
                  ((b * channels + c) * in_h + oh * window + kh) * in_w +
                  ow * window + kw;
              if (best_index < 0 || input[xi] > best) {
                best = input[xi];
                best_index = xi;
              }
            }
          }
          output[out_index] = best;
          argmax[static_cast<size_t>(out_index)] = best_index;
          ++out_index;
        }
      }
    }
  }
  return output;
}

TEST(ReLUTest, ForwardAndMaskMatchHistoricalLoopBitForBit) {
  const Tensor x = SpecialValues({3, 2, 4, 5}, 31);
  Tensor want_mask;
  const Tensor want = HistoricalRelu(x, want_mask);
  ReLU relu;
  EXPECT_EQ(FirstBitMismatch(relu.Forward(x), want), -1);
  // Backward multiplies by the mask, so a gradient of ones reads it out.
  EXPECT_EQ(FirstBitMismatch(relu.Backward(Tensor::Full(x.shape(), 1.0f)),
                             want_mask),
            -1);
}

TEST(MaxPoolTest, ForwardAndArgmaxMatchHistoricalLoopBitForBit) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // A small alphabet makes ties, signed-zero ties, NaN in every window
  // position and all-negative windows common.
  const float alphabet[] = {nan,  -nan, 0.0f, -0.0f, -1.0f, -1.0f, 2.0f,
                            2.0f, kInf, -kInf, -3.5f, 0.25f, -0.5f};
  for (const int64_t window : {int64_t{2}, int64_t{3}}) {
    SCOPED_TRACE(window);
    Rng rng(33 + static_cast<uint64_t>(window));
    Tensor x({3, 2, 6 * window / 2, 4 * window / 2});
    for (int64_t i = 0; i < x.numel(); ++i) {
      x[i] = alphabet[rng.UniformInt(13)];
    }
    // Channel 1 of sample 2 is strictly negative: every window's max is
    // a negative number, never the historical loop's 0.0f seed.
    const int64_t plane = x.dim(2) * x.dim(3);
    for (int64_t i = 5 * plane; i < 6 * plane; ++i) {
      x[i] = -1.0f - static_cast<float>(rng.Uniform());
    }
    std::vector<int64_t> want_argmax;
    const Tensor want = HistoricalMaxPool(x, window, want_argmax);

    MaxPool2d pool(window);
    EXPECT_EQ(FirstBitMismatch(pool.Forward(x), want), -1);
    // Distinct output gradients land on each window's argmax, so the
    // input gradient reads the argmax out exactly.
    Tensor gy(want.shape());
    Tensor want_gx(x.shape());
    for (int64_t i = 0; i < gy.numel(); ++i) {
      gy[i] = static_cast<float>(i + 1);
      want_gx[want_argmax[static_cast<size_t>(i)]] += gy[i];
    }
    EXPECT_EQ(FirstBitMismatch(pool.Backward(gy), want_gx), -1);
  }
}

// Conv2d's im2col path as first written against the public tensor ops: a
// fresh image, unfold, Matmul and Transpose per sample.
struct ConvPass {
  Tensor output, grad_input, weight_grad, bias_grad;
};

ConvPass HistoricalIm2ColConv(const Tensor& input, const Tensor& weight,
                              const Tensor& bias, bool with_bias,
                              int64_t padding, const Tensor& grad_output) {
  const int64_t batch = input.dim(0), channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_c = weight.dim(0), k = weight.dim(2);
  const int64_t kk = channels * k * k;
  const int64_t out_h = in_h + 2 * padding - k + 1;
  const int64_t out_w = in_w + 2 * padding - k + 1;
  const int64_t spatial = out_h * out_w;
  const int64_t image_size = channels * in_h * in_w;
  const Tensor weight_matrix = weight.Reshape({out_c, kk});
  const Tensor weight_t = Transpose(weight_matrix);

  ConvPass pass;
  pass.output = Tensor({batch, out_c, out_h, out_w});
  pass.grad_input = Tensor(input.shape());
  pass.weight_grad = Tensor(weight.shape());
  pass.bias_grad = Tensor(bias.shape());
  Tensor weight_grad_matrix({out_c, kk});
  for (int64_t b = 0; b < batch; ++b) {
    Tensor image({channels, in_h, in_w});
    std::copy(input.data() + b * image_size,
              input.data() + (b + 1) * image_size, image.data());
    const Tensor columns = Im2Col(image, k, padding);
    const Tensor result = Matmul(weight_matrix, columns);
    for (int64_t oc = 0; oc < out_c; ++oc) {
      const float bias_value = with_bias ? bias[oc] : 0.0f;
      for (int64_t i = 0; i < spatial; ++i) {
        pass.output[(b * out_c + oc) * spatial + i] =
            result[oc * spatial + i] + bias_value;
      }
    }

    Tensor gy({out_c, spatial});
    std::copy(grad_output.data() + b * out_c * spatial,
              grad_output.data() + (b + 1) * out_c * spatial, gy.data());
    weight_grad_matrix.AddInPlace(Matmul(gy, Transpose(columns)));
    const Tensor grad_image = Col2Im(Matmul(weight_t, gy), channels, in_h,
                                     in_w, k, padding);
    std::copy(grad_image.data(), grad_image.data() + image_size,
              pass.grad_input.data() + b * image_size);
    if (with_bias) {
      for (int64_t oc = 0; oc < out_c; ++oc) {
        double sum = 0.0;
        for (int64_t i = 0; i < spatial; ++i)
          sum += static_cast<double>(gy[oc * spatial + i]);
        pass.bias_grad[oc] += static_cast<float>(sum);
      }
    }
  }
  pass.weight_grad.AddInPlace(weight_grad_matrix.Reshape(weight.shape()));
  return pass;
}

TEST(Conv2dTest, Im2ColMatchesHistoricalCompositionBitForBit) {
  struct Shape {
    int64_t in_c, out_c, k, padding;
    bool with_bias;
    int64_t batch, h, w;
  };
  // The CNN's two convolutions, then odd shapes with and without bias.
  const Shape shapes[] = {{1, 6, 3, 1, true, 3, 14, 14},
                          {6, 12, 3, 0, true, 2, 7, 7},
                          {2, 3, 3, 1, false, 2, 5, 6},
                          {3, 4, 2, 0, false, 1, 6, 5}};
  const SimdTier entry_tier = ActiveSimdTier();
  const int entry_threads = GetGlobalThreadCount();
  for (const Shape& s : shapes) {
    Rng rng(40 + static_cast<uint64_t>(s.in_c));
    Conv2d layer(s.in_c, s.out_c, s.k, rng, s.padding, s.with_bias);
    const std::vector<Parameter*> params = layer.Parameters();
    if (s.with_bias) params[1]->value = Tensor::Randn({s.out_c}, rng);
    // ReLU-like inputs and sparse output gradients put zeros on both
    // sides of every matmul, as on the CNN's per-sample pass.
    Tensor x = Tensor::Randn({s.batch, s.in_c, s.h, s.w}, rng);
    for (int64_t i = 0; i < x.numel(); ++i) x[i] = x[i] > 0.0f ? x[i] : 0.0f;
    const int64_t out_h = s.h + 2 * s.padding - s.k + 1;
    const int64_t out_w = s.w + 2 * s.padding - s.k + 1;
    Tensor gy = Tensor::Randn({s.batch, s.out_c, out_h, out_w}, rng);
    for (int64_t i = 0; i < gy.numel(); i += 3) gy[i] = 0.0f;
    for (int64_t i = 1; i < gy.numel(); i += 7) gy[i] = -0.0f;
    const Tensor bias = s.with_bias ? params[1]->value : Tensor({s.out_c});

    for (const SimdTier tier : AvailableSimdTiers()) {
      SetSimdTier(tier);
      const ConvPass want = HistoricalIm2ColConv(
          x, params[0]->value, bias, s.with_bias, s.padding, gy);
      for (const int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        SCOPED_TRACE(std::string(SimdTierName(tier)) + " threads " +
                     std::to_string(threads) + " in_c " +
                     std::to_string(s.in_c));
        ZeroGradients(params);
        EXPECT_EQ(FirstBitMismatch(layer.Forward(x), want.output), -1);
        EXPECT_EQ(FirstBitMismatch(layer.Backward(gy), want.grad_input), -1);
        EXPECT_EQ(FirstBitMismatch(params[0]->grad, want.weight_grad), -1);
        if (s.with_bias) {
          EXPECT_EQ(FirstBitMismatch(params[1]->grad, want.bias_grad), -1);
        }
        // The parameter-only walk leaves out dX but not dW or db.
        ZeroGradients(params);
        layer.Forward(x);
        layer.BackwardParameters(gy, nullptr);
        EXPECT_EQ(FirstBitMismatch(params[0]->grad, want.weight_grad), -1);
        if (s.with_bias) {
          EXPECT_EQ(FirstBitMismatch(params[1]->grad, want.bias_grad), -1);
        }
      }
    }
  }
  SetSimdTier(entry_tier);
  SetGlobalThreadCount(entry_threads);
}

}  // namespace
}  // namespace geodp
