// Tests for the optimizer layer: SGD, DP-Adam, per-sample gradients,
// perturbation-method plumbing and the IS / SUR techniques.

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "clip/clipping.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "nn/sequential.h"
#include "optim/dp_adam.h"
#include "optim/dp_sgd.h"
#include "optim/geodp_sgd.h"
#include "optim/sgd.h"
#include "optim/techniques.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

TEST(SgdTest, ConvergesOnQuadratic) {
  // Minimize f(w) = ||w - target||^2 by hand-written gradients.
  Parameter w("w", Tensor::Vector({5.0f, -3.0f}));
  const Tensor target = Tensor::Vector({1.0f, 2.0f});
  Sgd sgd({&w}, {.learning_rate = 0.1});
  for (int step = 0; step < 200; ++step) {
    sgd.ZeroGrad();
    w.grad = Scale(Sub(w.value, target), 2.0f);
    sgd.Step();
  }
  EXPECT_LT(MaxAbsDiff(w.value, target), 1e-3);
}

TEST(SgdTest, MomentumAcceleratesDescent) {
  auto run = [](double momentum) {
    Parameter w("w", Tensor::Vector({5.0f}));
    const Tensor target = Tensor::Vector({0.0f});
    Sgd sgd({&w}, {.learning_rate = 0.01, .momentum = momentum});
    for (int step = 0; step < 50; ++step) {
      sgd.ZeroGrad();
      w.grad = Scale(Sub(w.value, target), 2.0f);
      sgd.Step();
    }
    return std::fabs(w.value[0]);
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(FlatAdamTest, ConvergesOnQuadratic) {
  Parameter w("w", Tensor::Vector({5.0f, -3.0f, 2.0f}));
  const Tensor target = Tensor::Vector({1.0f, 2.0f, -1.0f});
  std::vector<Parameter*> params = {&w};
  FlatAdam adam(3, {.learning_rate = 0.1});
  for (int step = 0; step < 500; ++step) {
    const Tensor grad = Scale(Sub(w.value, target), 2.0f);
    adam.Step(params, grad);
  }
  EXPECT_LT(MaxAbsDiff(w.value, target), 1e-2);
  EXPECT_EQ(adam.step_count(), 500);
}

TEST(PerSampleGradientTest, AverageMatchesBatchGradient) {
  // With a no-op clipper (huge C), the average of per-sample gradients must
  // equal the batch gradient of the mean loss.
  Rng rng(1);
  SyntheticImageOptions data_options;
  data_options.num_examples = 8;
  data_options.height = 6;
  data_options.width = 6;
  const InMemoryDataset ds = MakeSyntheticImages(data_options);

  auto model = MakeLogisticRegression(36, 10, rng);
  SoftmaxCrossEntropy loss;
  const FlatClipper no_clip(1e9);
  std::vector<int64_t> indices = {0, 1, 2, 3, 4, 5, 6, 7};
  const PrivateBatchGradient per_sample = ComputePerSampleGradients(
      *model, loss, ds, indices, no_clip, /*for_step_record=*/true);

  // Batch gradient.
  const auto params = model->Parameters();
  ZeroGradients(params);
  const Tensor x = ds.StackImages(indices);
  loss.Forward(model->Forward(x), ds.GatherLabels(indices));
  model->Backward(loss.Backward());
  const Tensor batch_grad = FlattenGradients(params);

  EXPECT_LT(MaxAbsDiff(per_sample.averaged_raw, batch_grad), 1e-4);
  EXPECT_LT(MaxAbsDiff(per_sample.averaged_clipped, batch_grad), 1e-4);
}

TEST(PerSampleGradientTest, ClippingBoundsEachContribution) {
  Rng rng(2);
  SyntheticImageOptions data_options;
  data_options.num_examples = 4;
  data_options.height = 6;
  data_options.width = 6;
  const InMemoryDataset ds = MakeSyntheticImages(data_options);
  auto model = MakeLogisticRegression(36, 10, rng);
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(0.01);
  const PrivateBatchGradient result =
      ComputePerSampleGradients(*model, loss, ds, {0, 1, 2, 3}, clipper);
  // Averaged clipped gradient norm is at most C.
  EXPECT_LE(result.averaged_clipped.L2Norm(), 0.01 + 1e-6);
  EXPECT_EQ(result.batch_size, 4);
  EXPECT_EQ(result.sample_losses.size(), 4u);
}

TEST(PerSampleGradientTest, MeanLossMatchesSampleLosses) {
  Rng rng(3);
  SyntheticImageOptions data_options;
  data_options.num_examples = 4;
  data_options.height = 6;
  data_options.width = 6;
  const InMemoryDataset ds = MakeSyntheticImages(data_options);
  auto model = MakeLogisticRegression(36, 10, rng);
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(0.1);
  const PrivateBatchGradient result =
      ComputePerSampleGradients(*model, loss, ds, {0, 1, 2, 3}, clipper);
  double mean = 0.0;
  for (double l : result.sample_losses) mean += l;
  mean /= 4.0;
  EXPECT_NEAR(result.mean_loss, mean, 1e-9);
}

TEST(EvaluateTest, LossAndAccuracyAreConsistent) {
  Rng rng(4);
  SyntheticImageOptions data_options;
  data_options.num_examples = 50;
  data_options.height = 6;
  data_options.width = 6;
  const InMemoryDataset ds = MakeSyntheticImages(data_options);
  auto model = MakeLogisticRegression(36, 10, rng);
  const double loss_all = EvaluateMeanLoss(*model, ds);
  const double loss_capped = EvaluateMeanLoss(*model, ds, /*max_examples=*/50);
  EXPECT_NEAR(loss_all, loss_capped, 1e-9);
  const double acc = EvaluateAccuracy(*model, ds);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(PerturbationMethodTest, ParseAndName) {
  EXPECT_EQ(ParsePerturbationMethod("none"), PerturbationMethod::kNoiseFree);
  EXPECT_EQ(ParsePerturbationMethod("dp"), PerturbationMethod::kDp);
  EXPECT_EQ(ParsePerturbationMethod("geodp"), PerturbationMethod::kGeoDp);
  EXPECT_EQ(PerturbationMethodName(PerturbationMethod::kGeoDp), "GeoDP");
}

TEST(PerturbationMethodTest, FactoryBuildsEachKind) {
  PerturbationOptions base;
  base.clip_threshold = 0.1;
  base.batch_size = 4;
  base.noise_multiplier = 1.0;
  EXPECT_EQ(MakePerturberForMethod(PerturbationMethod::kNoiseFree, base, 0.1)
                ->name(),
            "none");
  EXPECT_EQ(MakePerturberForMethod(PerturbationMethod::kDp, base, 0.1)->name(),
            "DP");
  EXPECT_EQ(
      MakePerturberForMethod(PerturbationMethod::kGeoDp, base, 0.1)->name(),
      "GeoDP");
}

TEST(PerturbationMethodTest, IdentityPerturberIsIdentity) {
  IdentityPerturber identity;
  Rng rng(5);
  const Tensor g = Tensor::Vector({1, 2, 3});
  EXPECT_TRUE(AllClose(identity.Perturb(g, rng), g));
}

TEST(ImportanceSamplerTest, PrefersHighLossExamples) {
  ImportanceSampler sampler(4, 1000, /*seed=*/6);
  sampler.UpdateLoss(0, 10.0);
  sampler.UpdateLoss(1, 0.01);
  sampler.UpdateLoss(2, 0.01);
  sampler.UpdateLoss(3, 0.01);
  const auto batch = sampler.NextBatch();
  int count0 = 0;
  for (int64_t i : batch) {
    if (i == 0) ++count0;
  }
  // Example 0 holds ~99.7% of the weight mass.
  EXPECT_GT(count0, 900);
}

TEST(ImportanceSamplerTest, EmaUpdatesWeights) {
  ImportanceSampler sampler(2, 1, /*seed=*/7, /*ema=*/0.5);
  sampler.UpdateLoss(0, 4.0);
  EXPECT_DOUBLE_EQ(sampler.weight(0), 4.0);  // first observation replaces
  sampler.UpdateLoss(0, 2.0);
  EXPECT_DOUBLE_EQ(sampler.weight(0), 3.0);  // 0.5*4 + 0.5*2
}

TEST(ImportanceSamplerTest, AllIndicesReachable) {
  ImportanceSampler sampler(5, 500, /*seed=*/8);
  const auto batch = sampler.NextBatch();
  std::vector<bool> seen(5, false);
  for (int64_t i : batch) seen[static_cast<size_t>(i)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SelectiveUpdaterTest, AcceptsImprovement) {
  SelectiveUpdater updater(0.0);
  EXPECT_TRUE(updater.ShouldAccept(1.0, 0.9));
  EXPECT_FALSE(updater.ShouldAccept(1.0, 1.1));
  EXPECT_EQ(updater.accepted(), 1);
  EXPECT_EQ(updater.rejected(), 1);
}

TEST(SelectiveUpdaterTest, ToleranceAllowsSmallRegressions) {
  SelectiveUpdater updater(0.2);
  EXPECT_TRUE(updater.ShouldAccept(1.0, 1.1));
  EXPECT_FALSE(updater.ShouldAccept(1.0, 1.3));
}

}  // namespace
}  // namespace geodp
