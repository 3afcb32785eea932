// Tests for the membership-inference attack harness and the adaptive-beta
// extension.

#include <gtest/gtest.h>

#include "attack/membership_inference.h"
#include "base/rng.h"
#include "core/spherical.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "optim/adaptive_beta.h"
#include "optim/trainer.h"

namespace geodp {
namespace {

TEST(AucTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(ComputeAuc({3.0, 4.0}, {1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(ComputeAuc({1.0, 2.0}, {3.0, 4.0}), 0.0);
}

TEST(AucTest, IdenticalScoresAreChance) {
  EXPECT_DOUBLE_EQ(ComputeAuc({1.0, 1.0}, {1.0, 1.0}), 0.5);
}

TEST(AucTest, InterleavedScores) {
  // members {1,3}, nonmembers {2,4}: wins = (1>2?0)+(1>4?0)+(3>2?1)+(3>4?0)
  // = 1 of 4.
  EXPECT_DOUBLE_EQ(ComputeAuc({1.0, 3.0}, {2.0, 4.0}), 0.25);
}

TEST(AdvantageTest, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(ComputeAdvantage({3.0, 4.0}, {1.0, 2.0}), 1.0);
}

TEST(AdvantageTest, NoSeparation) {
  EXPECT_NEAR(ComputeAdvantage({1.0, 2.0}, {1.0, 2.0}), 0.0, 1e-12);
}

TEST(MiaTest, OverfitModelLeaksMembership) {
  // Train a model hard on a tiny member set; the loss-threshold attack
  // should separate members from fresh non-members well above chance.
  SyntheticImageOptions options;
  options.num_examples = 160;
  options.height = 8;
  options.width = 8;
  options.pixel_noise = 0.3;
  options.seed = 5;
  InMemoryDataset members = MakeSyntheticImages(options);
  InMemoryDataset nonmembers = members.SplitTail(80);

  Rng rng(6);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions trainer_options;
  trainer_options.method = PerturbationMethod::kNoiseFree;
  trainer_options.batch_size = 40;
  trainer_options.iterations = 400;
  trainer_options.learning_rate = 3.0;
  trainer_options.clip_threshold = 1.0;
  trainer_options.seed = 7;
  DpTrainer trainer(model.get(), &members, nullptr, trainer_options);
  trainer.Run().value();

  const MiaResult result = RunLossThresholdAttack(*model, members, nonmembers);
  EXPECT_GT(result.auc, 0.6);
  EXPECT_GT(result.advantage, 0.1);
  EXPECT_LT(result.mean_member_loss, result.mean_nonmember_loss);
  EXPECT_EQ(result.members, 80);
  EXPECT_EQ(result.nonmembers, 80);
}

TEST(MiaTest, DpNoiseReducesAttackSuccess) {
  SyntheticImageOptions options;
  options.num_examples = 160;
  options.height = 8;
  options.width = 8;
  options.pixel_noise = 0.3;
  options.seed = 8;
  InMemoryDataset members = MakeSyntheticImages(options);
  InMemoryDataset nonmembers = members.SplitTail(80);

  auto attack_auc = [&](PerturbationMethod method, double sigma) {
    Rng rng(9);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions trainer_options;
    trainer_options.method = method;
    trainer_options.batch_size = 40;
    trainer_options.iterations = 400;
    trainer_options.learning_rate = 3.0;
    trainer_options.clip_threshold = 1.0;
    trainer_options.noise_multiplier = sigma;
    trainer_options.beta = 0.005;
    trainer_options.seed = 10;
    DpTrainer trainer(model.get(), &members, nullptr, trainer_options);
    trainer.Run().value();
    return RunLossThresholdAttack(*model, members, nonmembers).auc;
  };

  const double auc_free = attack_auc(PerturbationMethod::kNoiseFree, 0.0);
  const double auc_dp = attack_auc(PerturbationMethod::kDp, 4.0);
  EXPECT_LT(auc_dp, auc_free);
}

TEST(AdaptiveBetaTest, StartsAtCeiling) {
  AdaptiveBetaController controller(0.001, 0.8);
  EXPECT_DOUBLE_EQ(controller.CurrentBeta(), 0.8);
}

TEST(AdaptiveBetaTest, ConcentratedDirectionsGiveSmallBeta) {
  AdaptiveBetaController controller(0.001, 1.0, /*safety_factor=*/1.5);
  Rng rng(11);
  SphericalCoordinates base;
  base.magnitude = 1.0;
  base.angles = {1.5, 1.5, 1.5, 0.2};
  for (int i = 0; i < 50; ++i) {
    SphericalCoordinates jittered = base;
    for (double& a : jittered.angles) a += rng.Gaussian(0.0, 0.01);
    controller.Observe(jittered);
  }
  EXPECT_LT(controller.CurrentBeta(), 0.1);
  EXPECT_GE(controller.CurrentBeta(), 0.001);
}

TEST(AdaptiveBetaTest, WideDirectionsGiveLargeBeta) {
  AdaptiveBetaController controller(0.001, 1.0);
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    SphericalCoordinates direction;
    direction.magnitude = 1.0;
    direction.angles = {rng.Uniform(0.0, 3.1), rng.Uniform(0.0, 3.1),
                        rng.Uniform(-3.1, 3.1)};
    controller.Observe(direction);
  }
  EXPECT_GT(controller.CurrentBeta(), 0.5);
}

TEST(AdaptiveBetaTest, FloorIsRespected) {
  AdaptiveBetaController controller(0.05, 1.0);
  SphericalCoordinates constant;
  constant.magnitude = 1.0;
  constant.angles = {1.0, 1.0};
  for (int i = 0; i < 20; ++i) controller.Observe(constant);
  EXPECT_DOUBLE_EQ(controller.CurrentBeta(), 0.05);
}

TEST(AdaptiveBetaTest, TrainerIntegration) {
  SyntheticImageOptions options;
  options.num_examples = 128;
  options.height = 8;
  options.width = 8;
  options.seed = 13;
  InMemoryDataset train = MakeSyntheticImages(options);
  Rng rng(14);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions trainer_options;
  trainer_options.method = PerturbationMethod::kGeoDp;
  trainer_options.adaptive_beta = true;
  trainer_options.adaptive_beta_floor = 0.001;
  trainer_options.batch_size = 32;
  trainer_options.iterations = 30;
  trainer_options.learning_rate = 1.0;
  trainer_options.noise_multiplier = 1.0;
  trainer_options.seed = 15;
  DpTrainer trainer(model.get(), &train, nullptr, trainer_options);
  const TrainingResult result = trainer.Run().value();
  EXPECT_GT(result.final_beta, 0.0);
  EXPECT_LT(result.final_beta, 1.0);  // adapted below the ceiling
}

}  // namespace
}  // namespace geodp
