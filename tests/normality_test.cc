// Tests for the normality diagnostics and direction-concentration
// measurements that support the paper's Theorems 2-3: batch-averaged
// gradient coordinates and directions approach a Gaussian, and per-sample
// directions concentrate in a subspace (justifying beta < 1).

#include <cmath>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "data/gradient_dataset.h"
#include "stats/direction_stats.h"
#include "stats/normality.h"
#include "support/oracles.h"

namespace geodp {
namespace {

TEST(NormalityTest, GaussianSampleLooksGaussian) {
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Gaussian(3.0, 2.0));
  const NormalityReport report = AnalyzeNormality(samples);
  EXPECT_NEAR(report.mean, 3.0, 0.05);
  EXPECT_NEAR(report.stddev, 2.0, 0.05);
  EXPECT_TRUE(LooksGaussian(report, 0.1));
}

TEST(NormalityTest, ExponentialSampleIsSkewed) {
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(-std::log(1.0 - rng.Uniform()));
  const NormalityReport report = AnalyzeNormality(samples);
  EXPECT_GT(report.skewness, 1.5);  // Exp(1) has skewness 2
  EXPECT_FALSE(LooksGaussian(report, 0.5));
}

TEST(NormalityTest, UniformSampleHasNegativeKurtosis) {
  Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.Uniform());
  const NormalityReport report = AnalyzeNormality(samples);
  EXPECT_NEAR(report.excess_kurtosis, -1.2, 0.1);
  EXPECT_NEAR(report.skewness, 0.0, 0.1);
}

TEST(NormalityTest, JarqueBeraSmallUnderNormality) {
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) samples.push_back(rng.Gaussian());
  const NormalityReport normal = AnalyzeNormality(samples);
  std::vector<double> skewed;
  for (double x : samples) skewed.push_back(x * x);
  const NormalityReport chi2 = AnalyzeNormality(skewed);
  EXPECT_LT(normal.jarque_bera, chi2.jarque_bera);
}

TEST(Theorem2Test, AveragedAngleCoordinateApproachesGaussian) {
  // Theorem 3 (same CLT argument as Theorem 2): the batch-average of a
  // fixed angle coordinate across per-sample gradients is asymptotically
  // Gaussian. Averages of B=64 i.i.d. draws should look much more Gaussian
  // than the raw per-sample values, whose distribution we make skewed on
  // purpose (log-normal magnitudes + concentration).
  const GradientDataset data =
      MakeConcentratedGradientDataset(1000, 16, 0.5, 1.0, /*seed=*/5);

  const std::vector<double> raw =
      SampleAveragedAngleCoordinate(data, /*batch=*/1, /*angle_index=*/0,
                                    /*trials=*/1500, /*seed=*/6);
  const std::vector<double> averaged =
      SampleAveragedAngleCoordinate(data, /*batch=*/64, /*angle_index=*/0,
                                    /*trials=*/1500, /*seed=*/6);
  const NormalityReport raw_report = AnalyzeNormality(raw);
  const NormalityReport averaged_report = AnalyzeNormality(averaged);
  EXPECT_LT(averaged_report.jarque_bera, raw_report.jarque_bera);
  EXPECT_TRUE(LooksGaussian(averaged_report, 0.5));
  // Spread shrinks roughly as 1/sqrt(B).
  EXPECT_LT(averaged_report.stddev, raw_report.stddev / 4.0);
}

TEST(Theorem3Test, ConcentratedGradientsHaveSmallEmpiricalBeta) {
  const GradientDataset concentrated =
      MakeConcentratedGradientDataset(300, 32, 0.05, 1.0, /*seed=*/7);
  const DirectionConcentration c =
      AnalyzeDirectionConcentration(concentrated);
  EXPECT_GT(c.mean_cosine_to_center, 0.8);
  EXPECT_LT(c.empirical_beta, 0.5);

  // Isotropic gradients fill the space: near-zero alignment, larger
  // empirical beta.
  const GradientDataset isotropic =
      MakeConcentratedGradientDataset(300, 32, 100.0, 1.0, /*seed=*/8);
  const DirectionConcentration iso = AnalyzeDirectionConcentration(isotropic);
  EXPECT_LT(iso.mean_cosine_to_center, 0.3);
  EXPECT_GT(iso.empirical_beta, c.empirical_beta);
}

TEST(Theorem3Test, HarvestedCnnGradientsConcentrateAboveIsotropic) {
  // The real harvested gradients (what GeoDP exploits) concentrate more
  // than an isotropic baseline of the same size/dimension. For N isotropic
  // unit vectors the expected cosine to their empirical center is about
  // 1/sqrt(N); per-sample CNN gradients share loss-surface structure and
  // exceed it.
  GradientDatasetOptions options;
  options.num_gradients = 64;
  options.dimension = 128;
  options.training_examples = 64;
  const GradientDataset harvested = HarvestGradientDataset(options);
  const DirectionConcentration c = AnalyzeDirectionConcentration(harvested);

  const GradientDataset isotropic =
      MakeConcentratedGradientDataset(64, 128, 1e6, 1.0, /*seed=*/17);
  const DirectionConcentration iso = AnalyzeDirectionConcentration(isotropic);

  EXPECT_GT(c.mean_cosine_to_center, iso.mean_cosine_to_center);
  EXPECT_GT(c.mean_cosine_to_center, 0.05);
}

}  // namespace
}  // namespace geodp
