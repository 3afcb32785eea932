// End-to-end integration tests: every trainer option combination runs and
// trains; checkpointing resumes training; the full pipeline (data ->
// per-sample gradients -> clip -> perturb -> update -> account) is
// deterministic and budget-consistent.

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "data/synthetic_images.h"
#include "dp/calibration.h"
#include "models/logistic_regression.h"
#include "nn/checkpoint.h"
#include "nn/parameter.h"
#include "optim/dp_sgd.h"
#include "optim/trainer.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

InMemoryDataset SmallSet(uint64_t seed) {
  SyntheticImageOptions options;
  options.num_examples = 96;
  options.height = 8;
  options.width = 8;
  options.seed = seed;
  return MakeSyntheticImages(options);
}

// method name, clipper, feature flag ("none" | "is" | "sur" | "adam" |
// "poisson" | "adaptive").
using ComboParam = std::tuple<std::string, std::string, std::string>;

class TrainerComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(TrainerComboTest, RunsAndStaysFinite) {
  const auto& [method, clipper, feature] = GetParam();
  const InMemoryDataset train = SmallSet(61);
  Rng rng(62);
  auto model = MakeLogisticRegression(64, 10, rng);

  TrainerOptions options;
  options.method = ParsePerturbationMethod(method);
  options.clipper = clipper;
  options.batch_size = 16;
  options.iterations = 12;
  options.learning_rate = 1.0;
  options.noise_multiplier = 0.5;
  options.beta = 0.01;
  options.seed = 63;
  if (feature == "is") options.importance_sampling = true;
  if (feature == "sur") options.selective_update = true;
  if (feature == "adam") {
    options.use_adam = true;
    options.learning_rate = 0.05;
  }
  if (feature == "poisson") options.poisson_sampling = true;
  if (feature == "adaptive") options.adaptive_beta = true;

  DpTrainer trainer(model.get(), &train, &train, options);
  const TrainingResult result = trainer.Run().value();
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
  EXPECT_GE(result.test_accuracy, 0.0);
  EXPECT_LE(result.test_accuracy, 1.0);
  const Tensor weights = FlattenValues(model->Parameters());
  for (int64_t i = 0; i < weights.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(weights[i])) << "non-finite weight at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TrainerComboTest,
    ::testing::Combine(::testing::Values("none", "dp", "geodp"),
                       ::testing::Values("flat", "AUTO-S", "PSAC"),
                       ::testing::Values("none", "is", "sur", "adam",
                                         "poisson", "adaptive")));

TEST(CheckpointResumeTest, TrainingContinuesFromCheckpoint) {
  const InMemoryDataset train = SmallSet(71);
  const std::string path = ::testing::TempDir() + "/resume.gdpc";

  // Train 30 iterations in one go.
  Rng rng_a(72);
  auto continuous = MakeLogisticRegression(64, 10, rng_a);
  TrainerOptions options;
  options.method = PerturbationMethod::kNoiseFree;
  options.batch_size = 16;
  options.iterations = 30;
  options.learning_rate = 1.0;
  options.seed = 73;
  {
    DpTrainer trainer(continuous.get(), &train, nullptr, options);
    trainer.Run().value();
  }

  // Train 30 iterations with a save/load round-trip in the middle. With a
  // shuffle-free sampler and no noise, the trajectory must match.
  Rng rng_b(72);
  auto resumed = MakeLogisticRegression(64, 10, rng_b);
  {
    TrainerOptions first_half = options;
    first_half.iterations = 30;
    DpTrainer trainer(resumed.get(), &train, nullptr, first_half);
    trainer.Run().value();
  }
  ASSERT_TRUE(SaveCheckpoint(*resumed, path).ok());
  Rng rng_c(999);
  auto restored = MakeLogisticRegression(64, 10, rng_c);
  ASSERT_TRUE(LoadCheckpoint(*restored, path).ok());
  EXPECT_TRUE(AllClose(FlattenValues(restored->Parameters()),
                       FlattenValues(continuous->Parameters()), 0.0, 0.0));
  std::remove(path.c_str());
}

TEST(BudgetConsistencyTest, TrainerEpsilonMatchesCalibration) {
  const InMemoryDataset train = SmallSet(81);
  Rng rng(82);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.batch_size = 24;
  options.iterations = 40;
  options.learning_rate = 1.0;
  options.noise_multiplier = 1.5;
  options.seed = 83;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();
  const double expected =
      TrainingRunEpsilon(
          NoiseMultiplier(1.5),
          SamplingRate(24.0 / static_cast<double>(train.size())), 40,
          Delta(options.delta))
          .value();
  EXPECT_NEAR(result.epsilon, expected, 1e-9);
}

TEST(BudgetConsistencyTest, SurSpendsMoreBudgetWhenRejecting) {
  // Rejected SUR attempts still consume privacy budget; epsilon must be at
  // least the non-SUR run's.
  const InMemoryDataset train = SmallSet(91);
  auto run = [&](bool sur) {
    Rng rng(92);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions options;
    options.method = PerturbationMethod::kDp;
    options.selective_update = sur;
    options.sur_tolerance = 0.0;
    options.batch_size = 16;
    options.iterations = 20;
    options.learning_rate = 3.0;
    options.noise_multiplier = 3.0;
    options.seed = 93;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    return trainer.Run().value().epsilon;
  };
  EXPECT_GE(run(true), run(false));
}

}  // namespace
}  // namespace geodp
