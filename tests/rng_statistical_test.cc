// Statistical quality tests for the deterministic RNG: chi-square
// uniformity, normality of the Gaussian sampler, tail behaviour of the
// Laplace sampler, lag autocorrelation and stream independence. These are
// load-bearing for the DP mechanisms, whose guarantees assume the noise
// actually has the stated distribution.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "stats/normality.h"
#include "stats/summary.h"
#include "support/oracles.h"

namespace geodp {
namespace {

TEST(RngStatisticalTest, UniformChiSquare) {
  Rng rng(1001);
  constexpr int kBins = 32;
  constexpr int kSamples = 64000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[static_cast<size_t>(rng.Uniform() * kBins)];
  }
  const double expected = static_cast<double>(kSamples) / kBins;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // chi^2(31): mean 31, stddev ~7.9; 70 is far beyond the 0.999 quantile.
  EXPECT_LT(chi2, 70.0);
}

TEST(RngStatisticalTest, UniformIntChiSquare) {
  Rng rng(1002);
  constexpr int kBins = 10;
  constexpr int kSamples = 50000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.UniformInt(kBins)];
  }
  const double expected = static_cast<double>(kSamples) / kBins;
  double chi2 = 0.0;
  for (int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 35.0);  // chi^2(9) 0.999 quantile ~27.9 + margin
}

TEST(RngStatisticalTest, GaussianPassesMomentTests) {
  Rng rng(1003);
  std::vector<double> samples;
  samples.reserve(40000);
  for (int i = 0; i < 40000; ++i) samples.push_back(rng.Gaussian());
  const NormalityReport report = AnalyzeNormality(samples);
  EXPECT_TRUE(LooksGaussian(report, 0.12));
  EXPECT_NEAR(report.mean, 0.0, 0.02);
  EXPECT_NEAR(report.stddev, 1.0, 0.02);
}

TEST(RngStatisticalTest, GaussianTailFractions) {
  Rng rng(1004);
  constexpr int kSamples = 100000;
  int beyond_1 = 0, beyond_2 = 0, beyond_3 = 0;
  for (int i = 0; i < kSamples; ++i) {
    const double g = std::fabs(rng.Gaussian());
    if (g > 1.0) ++beyond_1;
    if (g > 2.0) ++beyond_2;
    if (g > 3.0) ++beyond_3;
  }
  EXPECT_NEAR(beyond_1 / static_cast<double>(kSamples), 0.3173, 0.01);
  EXPECT_NEAR(beyond_2 / static_cast<double>(kSamples), 0.0455, 0.004);
  EXPECT_NEAR(beyond_3 / static_cast<double>(kSamples), 0.0027, 0.001);
}

TEST(RngStatisticalTest, LaplaceTailHeavierThanGaussian) {
  Rng rng(1005);
  constexpr int kSamples = 100000;
  int laplace_beyond_3 = 0;
  for (int i = 0; i < kSamples; ++i) {
    // Unit-variance Laplace has b = 1/sqrt(2).
    if (std::fabs(rng.Laplace(1.0 / std::sqrt(2.0))) > 3.0) {
      ++laplace_beyond_3;
    }
  }
  // P(|X|>3) = exp(-3*sqrt(2)) ~ 1.44% >> Gaussian's 0.27%.
  EXPECT_NEAR(laplace_beyond_3 / static_cast<double>(kSamples), 0.0144,
              0.004);
}

TEST(RngStatisticalTest, LagOneAutocorrelationNearZero) {
  Rng rng(1006);
  constexpr int kSamples = 50000;
  std::vector<double> samples(kSamples);
  for (auto& s : samples) s = rng.Uniform();
  double mean = 0.0;
  for (double s : samples) mean += s;
  mean /= kSamples;
  double num = 0.0, den = 0.0;
  for (int i = 0; i + 1 < kSamples; ++i) {
    num += (samples[static_cast<size_t>(i)] - mean) *
           (samples[static_cast<size_t>(i) + 1] - mean);
  }
  for (double s : samples) den += (s - mean) * (s - mean);
  EXPECT_LT(std::fabs(num / den), 0.02);
}

TEST(RngStatisticalTest, ForkedStreamsUncorrelated) {
  Rng parent(1007);
  Rng child = parent.Fork();
  constexpr int kSamples = 20000;
  double cross = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    cross += (parent.Uniform() - 0.5) * (child.Uniform() - 0.5);
  }
  // Cov estimate has stderr ~ (1/12)/sqrt(n) ~ 6e-4.
  EXPECT_LT(std::fabs(cross / kSamples), 0.004);
}

TEST(RngStatisticalTest, BoxMullerPairsAreIndependentEnough) {
  // Consecutive Gaussian draws come from the same Box-Muller pair; their
  // correlation must still vanish (sin/cos of the same angle are
  // uncorrelated over the uniform angle).
  Rng rng(1008);
  constexpr int kSamples = 50000;
  double cross = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double a = rng.Gaussian();
    const double b = rng.Gaussian();
    cross += a * b;
  }
  EXPECT_LT(std::fabs(cross / kSamples), 0.02);
}

}  // namespace
}  // namespace geodp
