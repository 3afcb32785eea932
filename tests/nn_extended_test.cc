// Tests for the MLP model factory, the im2col unfold and the equivalence of
// Conv2d's direct and im2col implementations.

#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "models/mlp.h"
#include "nn/conv2d.h"
#include "nn/im2col.h"
#include "nn/parameter.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace geodp {
namespace {

using testing_util::CheckGradients;

TEST(MlpTest, ShapesAndParameterCount) {
  Rng rng(7);
  MlpConfig config;
  config.input_dim = 36;
  config.hidden_dims = {16, 8};
  config.num_classes = 5;
  auto model = MakeMlp(config, rng);
  const Tensor x = Tensor::Randn({3, 1, 6, 6}, rng);
  const Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.dim(0), 3);
  EXPECT_EQ(logits.dim(1), 5);
  const int64_t expected = (36 * 16 + 16) + (16 * 8 + 8) + (8 * 5 + 5);
  EXPECT_EQ(TotalParameterCount(model->Parameters()), expected);
}

TEST(MlpTest, GradientCheck) {
  Rng rng(8);
  MlpConfig config;
  config.input_dim = 9;
  config.hidden_dims = {6};
  config.num_classes = 3;
  auto model = MakeMlp(config, rng);
  const Tensor x = Tensor::Randn({2, 1, 3, 3}, rng);
  const auto result = CheckGradients(*model, x, rng);
  EXPECT_LT(result.max_input_error, 5e-2);
  EXPECT_LT(result.max_param_error, 5e-2);
}

TEST(MlpTest, NoHiddenLayersIsLogisticRegression) {
  Rng rng(9);
  MlpConfig config;
  config.input_dim = 12;
  config.hidden_dims = {};
  config.num_classes = 4;
  auto model = MakeMlp(config, rng);
  EXPECT_EQ(TotalParameterCount(model->Parameters()), 12 * 4 + 4);
}

TEST(Im2ColTest, KnownUnfold) {
  // 1x3x3 image, 2x2 kernel, no padding -> 4 columns of 4 rows.
  const Tensor image =
      Tensor::FromVector({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Tensor columns = Im2Col(image, /*kernel_size=*/2, /*padding=*/0);
  EXPECT_EQ(columns.dim(0), 4);
  EXPECT_EQ(columns.dim(1), 4);
  // First receptive field (top-left): {1, 2, 4, 5} down the rows.
  EXPECT_EQ(columns.at({0, 0}), 1.0f);
  EXPECT_EQ(columns.at({1, 0}), 2.0f);
  EXPECT_EQ(columns.at({2, 0}), 4.0f);
  EXPECT_EQ(columns.at({3, 0}), 5.0f);
  // Last receptive field (bottom-right): {5, 6, 8, 9}.
  EXPECT_EQ(columns.at({0, 3}), 5.0f);
  EXPECT_EQ(columns.at({3, 3}), 9.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  const Tensor image = Tensor::FromVector({1, 1, 1}, {7});
  const Tensor columns = Im2Col(image, /*kernel_size=*/3, /*padding=*/1);
  EXPECT_EQ(columns.dim(0), 9);
  EXPECT_EQ(columns.dim(1), 1);
  // Center tap sees the pixel, all others the zero padding.
  EXPECT_EQ(columns.at({4, 0}), 7.0f);
  EXPECT_NEAR(columns.Sum(), 7.0, 1e-6);
}

TEST(Im2ColTest, BothLayoutsMatchTheDefinitionAtEveryPadding) {
  // Paddings from none to wider than the kernel (whole rows and columns of
  // the unfold fall in the border), odd image sizes, one and two channels.
  for (const int64_t kernel : {int64_t{1}, int64_t{2}, int64_t{3}}) {
    for (const int64_t padding : {int64_t{0}, int64_t{1}, int64_t{4}}) {
      for (const int64_t channels : {int64_t{1}, int64_t{2}}) {
        const int64_t height = 3, width = 5;
        Rng rng(static_cast<uint64_t>(10 * kernel + padding));
        const Tensor image = Tensor::Randn({channels, height, width}, rng);
        const int64_t out_h = height + 2 * padding - kernel + 1;
        const int64_t out_w = width + 2 * padding - kernel + 1;
        const int64_t rows = channels * kernel * kernel;
        const int64_t spatial = out_h * out_w;
        Tensor want({rows, spatial});
        for (int64_t r = 0; r < rows; ++r) {
          const int64_t c = r / (kernel * kernel);
          const int64_t kh = (r / kernel) % kernel, kw = r % kernel;
          for (int64_t s = 0; s < spatial; ++s) {
            const int64_t ih = s / out_w + kh - padding;
            const int64_t iw = s % out_w + kw - padding;
            const bool inside = ih >= 0 && ih < height && iw >= 0 && iw < width;
            want[r * spatial + s] = inside ? image.at({c, ih, iw}) : 0.0f;
          }
        }
        SCOPED_TRACE("kernel " + std::to_string(kernel) + " padding " +
                     std::to_string(padding) + " channels " +
                     std::to_string(channels));
        // Poisoned buffers: every element must be written.
        Tensor columns = Tensor::Full({rows, spatial}, -7.0f);
        Im2ColInto(image.data(), channels, height, width, kernel, padding,
                   columns.data());
        EXPECT_EQ(MaxAbsDiff(columns, want), 0.0);
        Tensor columns_t = Tensor::Full({spatial, rows}, -7.0f);
        Im2ColTransposedInto(image.data(), channels, height, width, kernel,
                             padding, columns_t.data());
        EXPECT_EQ(MaxAbsDiff(columns_t, Transpose(want)), 0.0);
      }
    }
  }
}

TEST(Im2ColTest, Col2ImAccumulatesOverlaps) {
  // All-ones columns folded back: each pixel receives one contribution per
  // receptive field covering it.
  const Tensor ones = Tensor::Full({4, 4}, 1.0f);  // 2x2 kernel on 3x3
  const Tensor image = Col2Im(ones, 1, 3, 3, /*kernel_size=*/2,
                              /*padding=*/0);
  // Corner pixels are covered once, center 4 times.
  EXPECT_EQ(image.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(image.at({0, 1, 1}), 4.0f);
  EXPECT_EQ(image.at({0, 2, 2}), 1.0f);
}

class ConvImplEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(ConvImplEquivalenceTest, ForwardAndBackwardMatchDirect) {
  const auto& [kernel, padding] = GetParam();
  Rng rng(42);
  Conv2d direct(2, 3, kernel, rng, padding, /*with_bias=*/true,
                ConvImpl::kDirect);
  Rng rng2(42);  // identical weights
  Conv2d fast(2, 3, kernel, rng2, padding, /*with_bias=*/true,
              ConvImpl::kIm2Col);
  Rng data_rng(7);
  const Tensor x = Tensor::Randn({2, 2, 6, 6}, data_rng);
  const Tensor y_direct = direct.Forward(x);
  const Tensor y_fast = fast.Forward(x);
  ASSERT_TRUE(SameShape(y_direct, y_fast));
  EXPECT_LT(MaxAbsDiff(y_direct, y_fast), 1e-4);

  const Tensor gy = Tensor::Randn(y_direct.shape(), data_rng);
  const Tensor gx_direct = direct.Backward(gy);
  const Tensor gx_fast = fast.Backward(gy);
  EXPECT_LT(MaxAbsDiff(gx_direct, gx_fast), 1e-4);
  EXPECT_LT(MaxAbsDiff(direct.Parameters()[0]->grad,
                       fast.Parameters()[0]->grad),
            1e-3);
  EXPECT_LT(MaxAbsDiff(direct.Parameters()[1]->grad,
                       fast.Parameters()[1]->grad),
            1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndPadding, ConvImplEquivalenceTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 5),
                       ::testing::Values<int64_t>(0, 1, 2)));

}  // namespace
}  // namespace geodp
