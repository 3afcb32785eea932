// Tests for the three model families: output shapes, parameter counts and
// end-to-end gradient checks on reduced configurations.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "models/cnn.h"
#include "models/logistic_regression.h"
#include "models/resnet.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "test_util.h"

namespace geodp {
namespace {

TEST(LogisticRegressionTest, ShapesAndParameterCount) {
  Rng rng(1);
  auto model = MakeLogisticRegression(196, 10, rng);
  const Tensor x = Tensor::Randn({4, 1, 14, 14}, rng);
  const Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.dim(0), 4);
  EXPECT_EQ(logits.dim(1), 10);
  EXPECT_EQ(TotalParameterCount(model->Parameters()), 196 * 10 + 10);
}

TEST(LogisticRegressionTest, GradientCheck) {
  Rng rng(2);
  auto model = MakeLogisticRegression(16, 3, rng);
  const Tensor x = Tensor::Randn({2, 1, 4, 4}, rng);
  const auto result = testing_util::CheckGradients(*model, x, rng);
  EXPECT_LT(result.max_input_error, 2e-2);
  EXPECT_LT(result.max_param_error, 2e-2);
}

TEST(CnnTest, DefaultShapes) {
  Rng rng(3);
  CnnConfig config;
  auto model = MakeCnn(config, rng);
  const Tensor x = Tensor::Randn({2, 1, 14, 14}, rng);
  const Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
}

TEST(CnnTest, ParameterCountMatchesArchitecture) {
  Rng rng(4);
  CnnConfig config;
  auto model = MakeCnn(config, rng);
  // conv1: 6*1*9+6, conv2: 12*6*9+12, fc: (12*5*5)*10+10.
  const int64_t expected = (6 * 1 * 9 + 6) + (12 * 6 * 9 + 12) +
                           (12 * 5 * 5) * 10 + 10;
  EXPECT_EQ(TotalParameterCount(model->Parameters()), expected);
}

TEST(CnnTest, GradientCheckTinyConfig) {
  Rng rng(5);
  CnnConfig config;
  config.image_size = 8;
  config.conv1_channels = 2;
  config.conv2_channels = 2;
  config.num_classes = 3;
  auto model = MakeCnn(config, rng);
  const Tensor x = Tensor::Randn({1, 1, 8, 8}, rng);
  const auto result = testing_util::CheckGradients(*model, x, rng);
  EXPECT_LT(result.max_input_error, 5e-2);
  EXPECT_LT(result.max_param_error, 5e-2);
}

TEST(CnnTest, CifarVariantShapes) {
  Rng rng(6);
  CnnConfig config;
  config.in_channels = 3;
  config.image_size = 16;
  auto model = MakeCnn(config, rng);
  const Tensor x = Tensor::Randn({2, 3, 16, 16}, rng);
  EXPECT_EQ(model->Forward(x).dim(1), 10);
}

TEST(ResNetTest, DefaultShapes) {
  Rng rng(7);
  ResNetConfig config;
  auto model = MakeResNet(config, rng);
  const Tensor x = Tensor::Randn({2, 3, 16, 16}, rng);
  const Tensor logits = model->Forward(x);
  EXPECT_EQ(logits.dim(0), 2);
  EXPECT_EQ(logits.dim(1), 10);
}

TEST(ResNetTest, BlockCountControlsParameters) {
  Rng rng(8);
  ResNetConfig small, large;
  small.num_blocks = 1;
  large.num_blocks = 3;
  auto model_small = MakeResNet(small, rng);
  auto model_large = MakeResNet(large, rng);
  const int64_t per_block = 2 * (8 * 8 * 9 + 8);
  EXPECT_EQ(TotalParameterCount(model_large->Parameters()) -
                TotalParameterCount(model_small->Parameters()),
            2 * per_block);
}

TEST(ResNetTest, GradientCheckTinyConfig) {
  Rng rng(9);
  ResNetConfig config;
  config.image_size = 8;
  config.width = 2;
  config.num_blocks = 1;
  config.num_classes = 3;
  auto model = MakeResNet(config, rng);
  const Tensor x = Tensor::Randn({1, 3, 8, 8}, rng);
  const auto result = testing_util::CheckGradients(*model, x, rng);
  EXPECT_LT(result.max_input_error, 5e-2);
  EXPECT_LT(result.max_param_error, 5e-2);
}

TEST(ModelsTest, TrainingReducesLossOnToyData) {
  // One non-private step of gradient descent on a fixed batch must reduce
  // the loss for each model family.
  Rng rng(10);
  SoftmaxCrossEntropy loss;

  auto run_one_step = [&](Sequential& model, const Tensor& x,
                          const std::vector<int64_t>& y, double lr) {
    const auto params = model.Parameters();
    ZeroGradients(params);
    const double before = loss.Forward(model.Forward(x), y);
    model.Backward(loss.Backward(), nullptr, true);
    const Tensor grad = FlattenGradients(params);
    ApplyFlatUpdate(params, grad, lr);
    const double after = loss.Forward(model.Forward(x), y);
    EXPECT_LT(after, before);
  };

  auto lr_model = MakeLogisticRegression(64, 4, rng);
  run_one_step(*lr_model, Tensor::Randn({8, 1, 8, 8}, rng),
               {0, 1, 2, 3, 0, 1, 2, 3}, 0.5);

  CnnConfig cnn_config;
  cnn_config.image_size = 8;
  cnn_config.num_classes = 4;
  auto cnn_model = MakeCnn(cnn_config, rng);
  run_one_step(*cnn_model, Tensor::Randn({8, 1, 8, 8}, rng),
               {0, 1, 2, 3, 0, 1, 2, 3}, 0.5);

  ResNetConfig resnet_config;
  resnet_config.image_size = 8;
  resnet_config.width = 4;
  resnet_config.num_classes = 4;
  auto resnet_model = MakeResNet(resnet_config, rng);
  // The ResNet's flatten head yields larger gradients; a smaller step
  // keeps the descent within the local linear regime.
  run_one_step(*resnet_model, Tensor::Randn({8, 3, 8, 8}, rng),
               {0, 1, 2, 3, 0, 1, 2, 3}, 0.02);
}

}  // namespace
}  // namespace geodp
