// Tests for the optimizer layer: DP-Adam, per-sample gradients,
// perturbation-method plumbing and the IS / SUR techniques.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "clip/clipping.h"
#include "data/synthetic_images.h"
#include "models/cnn.h"
#include "models/logistic_regression.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "nn/sequential.h"
#include "optim/dp_adam.h"
#include "optim/dp_sgd.h"
#include "optim/geodp_sgd.h"
#include "optim/techniques.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

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
  model->Backward(loss.Backward(), nullptr, true);
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

TEST(PerSampleGradientTest, NonFiniteSamplesAtBlockEdgesDropInBatchOrder) {
  // Per-sample gradients are staged in pipeline blocks of 64 samples. In
  // this lot of 137, infinite images sit at the first, a middle and the
  // last slot of block 0, fill all of block 1 (no finite sample) and end
  // block 2. Each sample's loss, norm and finiteness must be what a call
  // on that sample alone gives, in batch order, and the averages must sum
  // exactly the finite samples.
  constexpr int64_t kLot = 137;
  const auto poisoned = [](int64_t i) {
    return i == 0 || i == 31 || i == 63 || (i >= 64 && i < 128) ||
           i == kLot - 1;
  };
  SyntheticImageOptions data_options;
  data_options.num_examples = kLot;
  data_options.seed = 5;
  const InMemoryDataset clean = MakeSyntheticImages(data_options);
  InMemoryDataset data;
  for (int64_t i = 0; i < kLot; ++i) {
    Tensor image = clean.image(i);
    if (poisoned(i)) image.Fill(std::numeric_limits<float>::infinity());
    data.Add(std::move(image), clean.label(i));
  }
  Rng rng(6);
  auto model = MakeCnn(CnnConfig{}, rng);
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(0.5);
  std::vector<int64_t> indices(static_cast<size_t>(kLot));
  for (int64_t i = 0; i < kLot; ++i) indices[static_cast<size_t>(i)] = i;
  const PrivateBatchGradient got = ComputePerSampleGradients(
      *model, loss, data, indices, clipper, /*for_step_record=*/true);

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  ASSERT_EQ(got.sample_losses.size(), static_cast<size_t>(kLot));
  ASSERT_EQ(got.sample_grad_norms.size(), static_cast<size_t>(kLot));
  Tensor want_clipped({got.averaged_clipped.numel()});
  Tensor want_raw({got.averaged_raw.numel()});
  double want_loss_sum = 0.0;
  int64_t finite = 0;
  for (int64_t i = 0; i < kLot; ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    const PrivateBatchGradient alone = ComputePerSampleGradients(
        *model, loss, data, {i}, clipper, /*for_step_record=*/true);
    ASSERT_EQ(alone.nonfinite_skipped, poisoned(i) ? 1 : 0);
    const size_t at = static_cast<size_t>(i);
    EXPECT_TRUE(same_bits(got.sample_losses[at], alone.sample_losses[0]));
    EXPECT_TRUE(same_bits(got.sample_grad_norms[at],  // geodp: per-sample
                          alone.sample_grad_norms[0]));
    if (poisoned(i)) continue;
    ++finite;
    want_loss_sum += alone.sample_losses[0];
    want_clipped.AddInPlace(alone.averaged_clipped);
    want_raw.AddInPlace(alone.averaged_raw);
  }
  EXPECT_EQ(got.nonfinite_skipped, kLot - finite);
  EXPECT_EQ(got.mean_loss, want_loss_sum / static_cast<double>(finite));
  want_clipped.ScaleInPlace(1.0f / static_cast<float>(kLot));
  want_raw.ScaleInPlace(1.0f / static_cast<float>(kLot));
  // want holds no NaN, so a NaN from a dropped sample's gradient makes
  // MaxAbsDiff +inf.
  EXPECT_LT(MaxAbsDiff(got.averaged_clipped, want_clipped), 1e-6);
  EXPECT_LT(MaxAbsDiff(got.averaged_raw, want_raw), 1e-6);
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
