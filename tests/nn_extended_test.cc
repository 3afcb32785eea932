// Tests for the MLP model factory, the im2col unfold and the equivalence of
// Conv2d's direct and im2col implementations.

#include <bit>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "models/mlp.h"
#include "nn/conv2d.h"
#include "nn/im2col.h"
#include "nn/parameter.h"
#include "support/conv_reference.h"
#include "support/tensor_oracles.h"
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
  EXPECT_EQ(At(columns, {0, 0}), 1.0f);
  EXPECT_EQ(At(columns, {1, 0}), 2.0f);
  EXPECT_EQ(At(columns, {2, 0}), 4.0f);
  EXPECT_EQ(At(columns, {3, 0}), 5.0f);
  // Last receptive field (bottom-right): {5, 6, 8, 9}.
  EXPECT_EQ(At(columns, {0, 3}), 5.0f);
  EXPECT_EQ(At(columns, {3, 3}), 9.0f);
}

TEST(Im2ColTest, PaddingProducesZeros) {
  const Tensor image = Tensor::FromVector({1, 1, 1}, {7});
  const Tensor columns = Im2Col(image, /*kernel_size=*/3, /*padding=*/1);
  EXPECT_EQ(columns.dim(0), 9);
  EXPECT_EQ(columns.dim(1), 1);
  // Center tap sees the pixel, all others the zero padding.
  EXPECT_EQ(At(columns, {4, 0}), 7.0f);
  EXPECT_NEAR(Sum(columns), 7.0, 1e-6);
}

// One unfold or fold problem: a C x H x W image and a K x K kernel with
// symmetric padding P.
struct UnfoldShape {
  int64_t kernel, padding, channels, height, width;
  int64_t out_h() const { return height + 2 * padding - kernel + 1; }
  int64_t out_w() const { return width + 2 * padding - kernel + 1; }
  int64_t rows() const { return channels * kernel * kernel; }
  int64_t spatial() const { return out_h() * out_w(); }
  std::string Name() const {
    return "kernel " + std::to_string(kernel) + " padding " +
           std::to_string(padding) + " image " + std::to_string(channels) +
           "x" + std::to_string(height) + "x" + std::to_string(width);
  }
};

// Paddings from none to wider than the kernel (whole rows and columns of
// the unfold fall in the border), odd image sizes, one and two channels,
// kernels up to 5; then the CNN's two convolutions (1x14x14 with padding
// 1, and 6x7x7 without).
std::vector<UnfoldShape> UnfoldShapes() {
  std::vector<UnfoldShape> shapes;
  for (const int64_t kernel : {1, 2, 3, 5}) {
    for (const int64_t padding : {0, 1, 4, 6}) {
      for (const int64_t channels : {1, 2}) {
        shapes.push_back({kernel, padding, channels, 5, 7});
      }
    }
  }
  shapes.push_back({3, 1, 1, 14, 14});
  shapes.push_back({3, 0, 6, 7, 7});
  return shapes;
}

// Bitwise equality, so that a signed zero or a NaN payload counts.
bool SameBits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Im2ColTest, BothLayoutsMatchTheDefinitionAtEveryPadding) {
  for (const UnfoldShape& shape : UnfoldShapes()) {
    SCOPED_TRACE(shape.Name());
    const auto [kernel, padding, channels, height, width] = shape;
    const int64_t out_w = shape.out_w();
    const int64_t rows = shape.rows(), spatial = shape.spatial();
    Rng rng(static_cast<uint64_t>(10 * kernel + padding));
    Tensor image = Tensor::Randn({channels, height, width}, rng);
    // A signed zero inside the image must be copied, not replaced by the
    // padding's +0.
    image[image.numel() / 2] = -0.0f;
    Tensor want({rows, spatial});
    for (int64_t r = 0; r < rows; ++r) {
      const int64_t c = r / (kernel * kernel);
      const int64_t kh = (r / kernel) % kernel, kw = r % kernel;
      for (int64_t s = 0; s < spatial; ++s) {
        const int64_t ih = s / out_w + kh - padding;
        const int64_t iw = s % out_w + kw - padding;
        const bool inside = ih >= 0 && ih < height && iw >= 0 && iw < width;
        want[r * spatial + s] = inside ? At(image, {c, ih, iw}) : 0.0f;
      }
    }
    // Poisoned buffers: every element must be written.
    Tensor columns = Full({rows, spatial}, -7.0f);
    Im2ColInto(image.data(), channels, height, width, kernel, padding,
               columns.data());
    EXPECT_TRUE(SameBits(columns, want));
    Tensor columns_t = Full({spatial, rows}, -7.0f);
    Im2ColTransposedInto(image.data(), channels, height, width, kernel,
                         padding, columns_t.data());
    EXPECT_TRUE(SameBits(columns_t, Transpose(want)));
  }
}

TEST(Im2ColTest, Col2ImMatchesTheDefinitionBitForBit) {
  // x86's default NaN (sign bit set), the NaN that inf + -inf produces:
  // with it as the only NaN, every NaN sum has the same bits whichever
  // operand the compiler puts first.
  const float nan = std::bit_cast<float>(0xffc00000u);
  const float inf = std::numeric_limits<float>::infinity();
  const int entry_threads = GetGlobalThreadCount();
  for (const int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    for (const UnfoldShape& shape : UnfoldShapes()) {
      SCOPED_TRACE(shape.Name() + " threads " + std::to_string(threads));
      const auto [kernel, padding, channels, height, width] = shape;
      const int64_t out_h = shape.out_h(), out_w = shape.out_w();
      const int64_t spatial = shape.spatial();
      Rng rng(static_cast<uint64_t>(100 * kernel + padding));
      Tensor columns = Tensor::Randn({shape.rows(), spatial}, rng);
      const float specials[] = {-0.0f, nan, inf, -inf, -0.0f, inf};
      for (size_t i = 0; i < std::size(specials); ++i) {
        const int64_t at = static_cast<int64_t>(
            rng.UniformInt(static_cast<uint64_t>(columns.numel())));
        columns[at] = specials[i];
      }
      // The fold accumulates onto a partial sum: start from one that
      // holds signed zeros.
      Tensor start = Tensor::Randn({channels, height, width}, rng);
      for (int64_t i = 0; i < start.numel(); i += 3) start[i] = -0.0f;

      // Definition: one += per (row, output position) inside the image,
      // rows in order.
      Tensor want = start;
      for (int64_t c = 0; c < channels; ++c) {
        for (int64_t kh = 0; kh < kernel; ++kh) {
          for (int64_t kw = 0; kw < kernel; ++kw) {
            const int64_t row = (c * kernel + kh) * kernel + kw;
            for (int64_t oh = 0; oh < out_h; ++oh) {
              for (int64_t ow = 0; ow < out_w; ++ow) {
                const int64_t ih = oh + kh - padding;
                const int64_t iw = ow + kw - padding;
                if (ih < 0 || ih >= height || iw < 0 || iw >= width) continue;
                want[(c * height + ih) * width + iw] +=
                    columns[row * spatial + oh * out_w + ow];
              }
            }
          }
        }
      }
      Tensor got = start;
      Col2ImInto(columns.data(), channels, height, width, kernel, padding,
                 got.data());
      EXPECT_TRUE(SameBits(got, want));
    }
  }
  SetGlobalThreadCount(entry_threads);
}

TEST(Im2ColTest, Col2ImAccumulatesOverlaps) {
  // All-ones columns folded back: each pixel receives one contribution per
  // receptive field covering it.
  const Tensor ones = Full({4, 4}, 1.0f);  // 2x2 kernel on 3x3
  const Tensor image = Col2Im(ones, 1, 3, 3, /*kernel_size=*/2,
                              /*padding=*/0);
  // Corner pixels are covered once, center 4 times.
  EXPECT_EQ(At(image, {0, 0, 0}), 1.0f);
  EXPECT_EQ(At(image, {0, 1, 1}), 4.0f);
  EXPECT_EQ(At(image, {0, 2, 2}), 1.0f);
}

class ConvImplEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(ConvImplEquivalenceTest, ForwardAndBackwardMatchDirect) {
  const auto& [kernel, padding] = GetParam();
  Rng rng(42);
  Conv2d fast(2, 3, kernel, rng, padding, /*with_bias=*/true);
  const Tensor& weight = fast.Parameters()[0]->value;
  const Tensor& bias = fast.Parameters()[1]->value;
  Rng data_rng(7);
  const Tensor x = Tensor::Randn({2, 2, 6, 6}, data_rng);
  const Tensor y_direct = DirectConv2dForward(x, weight, bias, padding);
  const Tensor y_fast = fast.Forward(x);
  ASSERT_TRUE(SameShape(y_direct, y_fast));
  EXPECT_LT(MaxAbsDiff(y_direct, y_fast), 1e-4);

  const Tensor gy = Tensor::Randn(y_direct.shape(), data_rng);
  const DirectConv2dGrads direct = DirectConv2dBackward(x, weight, gy,
                                                        padding);
  const Tensor gx_fast = fast.Backward(gy, nullptr, true);
  EXPECT_LT(MaxAbsDiff(direct.input, gx_fast), 1e-4);
  EXPECT_LT(MaxAbsDiff(direct.weight, fast.Parameters()[0]->grad), 1e-3);
  EXPECT_LT(MaxAbsDiff(direct.bias, fast.Parameters()[1]->grad), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndPadding, ConvImplEquivalenceTest,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 5),
                       ::testing::Values<int64_t>(0, 1, 2)));

}  // namespace
}  // namespace geodp
