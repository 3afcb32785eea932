// Tests for the extended DP substrate: the analytic Gaussian delta,
// budget-first calibration and the privacy ledger.

#include <cmath>

#include <gtest/gtest.h>

#include "dp/analytic_gaussian.h"
#include "dp/calibration.h"
#include "dp/gaussian_mechanism.h"
#include "dp/privacy_ledger.h"
#include "dp/rdp_accountant.h"
#include "support/oracles.h"

namespace geodp {
namespace {

TEST(AnalyticGaussianTest, StandardNormalCdfAnchors) {
  EXPECT_NEAR(StandardNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StandardNormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(StandardNormalCdf(-1.96), 0.025, 1e-3);
}

TEST(AnalyticGaussianTest, DeltaKnownValues) {
  // Phi(1/(2 sigma) - eps sigma) - e^eps Phi(-1/(2 sigma) - eps sigma),
  // evaluated independently: the e^eps factor changes both values by
  // more than 2x, so a dropped or misplaced factor cannot pass.
  EXPECT_NEAR(AnalyticGaussianDelta(1.0, 1.0), 0.1269367, 0.1269367e-6);
  EXPECT_NEAR(AnalyticGaussianDelta(2.0, 1.0), 0.0068296, 0.0068296e-6);
}

TEST(AnalyticGaussianTest, DeltaDecreasesWithSigma) {
  const double d1 = AnalyticGaussianDelta(0.5, 1.0);
  const double d2 = AnalyticGaussianDelta(1.0, 1.0);
  const double d3 = AnalyticGaussianDelta(4.0, 1.0);
  EXPECT_GT(d1, d2);
  EXPECT_GT(d2, d3);
}

TEST(AnalyticGaussianTest, DeltaDecreasesWithEpsilon) {
  EXPECT_GT(AnalyticGaussianDelta(1.0, 0.5), AnalyticGaussianDelta(1.0, 2.0));
}

TEST(AnalyticGaussianTest, TighterThanClassicCalibration) {
  // The analytic mechanism never needs more noise than the classic bound
  // (valid for eps <= 1): at the classic sigma its exact delta, which
  // decreases in sigma, is already within the budget.
  for (double eps : {0.1, 0.5, 1.0}) {
    const double classic = GaussianSigmaForEpsilonDelta(eps, 1e-5);
    EXPECT_LE(AnalyticGaussianDelta(classic, eps), 1e-5) << "eps=" << eps;
  }
}

TEST(CalibrationTest, EpsilonMonotoneInSigma) {
  const double hi =
      TrainingRunEpsilon(NoiseMultiplier(0.5), SamplingRate(0.01), 500,
                         Delta(1e-5)).value();
  const double lo =
      TrainingRunEpsilon(NoiseMultiplier(4.0), SamplingRate(0.01), 500,
                         Delta(1e-5)).value();
  EXPECT_GT(hi, lo);
}

TEST(CalibrationTest, SolverHitsTarget) {
  const double target = 4.0;
  const double sigma =
      NoiseMultiplierForTargetEpsilon(Epsilon(target), Delta(1e-5),
                                      SamplingRate(0.02), 800).value();
  const double achieved =
      TrainingRunEpsilon(NoiseMultiplier(sigma), SamplingRate(0.02), 800,
                         Delta(1e-5)).value();
  EXPECT_LE(achieved, target * 1.001);
  // Not grossly over-noised: a slightly smaller sigma would violate it.
  const double relaxed =
      TrainingRunEpsilon(NoiseMultiplier(sigma * 0.98), SamplingRate(0.02),
                         800, Delta(1e-5))
          .value();
  EXPECT_GT(relaxed, target * 0.98);
}

TEST(CalibrationTest, TrainingRunEpsilonRejectsBadInputs) {
  EXPECT_EQ(
      TrainingRunEpsilon(NoiseMultiplier(-1.0), SamplingRate(0.01), 100,
                         Delta(1e-5))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      TrainingRunEpsilon(NoiseMultiplier(1.0), SamplingRate(1.5), 100,
                         Delta(1e-5))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      TrainingRunEpsilon(NoiseMultiplier(1.0), SamplingRate(0.01), -1,
                         Delta(1e-5))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      TrainingRunEpsilon(NoiseMultiplier(1.0), SamplingRate(0.01), 100,
                         Delta(2.0))
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(CalibrationTest, SolverRejectsBadInputs) {
  EXPECT_EQ(
      NoiseMultiplierForTargetEpsilon(Epsilon(0.0), Delta(1e-5),
                                      SamplingRate(0.01), 100).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      NoiseMultiplierForTargetEpsilon(Epsilon(1.0), Delta(1e-5),
                                      SamplingRate(0.01), 0).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      NoiseMultiplierForTargetEpsilon(Epsilon(1.0), Delta(1e-5),
                                      SamplingRate(2.0), 100).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(CalibrationTest, TighterBudgetNeedsMoreNoise) {
  const double sigma_tight =
      NoiseMultiplierForTargetEpsilon(Epsilon(1.0), Delta(1e-5),
                                      SamplingRate(0.01), 500).value();
  const double sigma_loose =
      NoiseMultiplierForTargetEpsilon(Epsilon(8.0), Delta(1e-5),
                                      SamplingRate(0.01), 500).value();
  EXPECT_GT(sigma_tight, sigma_loose);
}

TEST(PrivacyLedgerTest, CountsReleases) {
  PrivacyLedger ledger;
  ledger.RecordSubsampledGaussian(NoiseMultiplier(1.0), SamplingRate(0.01),
                                  100, "training");
  ledger.RecordGaussian(NoiseMultiplier(2.0), 1, "final release");
  ledger.RecordLaplace(Epsilon(0.1), 2, "hyperparameter queries");
  EXPECT_EQ(ledger.events().size(), 3u);
  EXPECT_EQ(ledger.TotalReleases(), 103);
}

TEST(PrivacyLedgerTest, ComposedGuaranteeMatchesAccountant) {
  PrivacyLedger ledger;
  ledger.RecordSubsampledGaussian(NoiseMultiplier(1.0), SamplingRate(0.01),
                                  200);
  const PrivacyGuarantee guarantee = ledger.ComposedGuarantee(Delta(1e-5));
  EXPECT_NEAR(guarantee.epsilon,
              TrainingRunEpsilon(NoiseMultiplier(1.0), SamplingRate(0.01), 200,
                                 Delta(1e-5)).value(),
              1e-9);
  EXPECT_DOUBLE_EQ(guarantee.delta, 1e-5);
}

TEST(PrivacyLedgerTest, LaplaceAddsPureEpsilon) {
  PrivacyLedger ledger;
  ledger.RecordLaplace(Epsilon(0.25), 4);
  const PrivacyGuarantee guarantee = ledger.ComposedGuarantee(Delta(1e-5));
  EXPECT_NEAR(guarantee.epsilon, 1.0, 1e-12);
  EXPECT_EQ(guarantee.delta, 0.0);  // pure epsilon-DP, no Gaussian events
}

TEST(PrivacyLedgerTest, MixedEventsCompose) {
  PrivacyLedger ledger;
  ledger.RecordSubsampledGaussian(NoiseMultiplier(2.0), SamplingRate(0.01),
                                  100);
  ledger.RecordLaplace(Epsilon(0.5), 1);
  const PrivacyGuarantee guarantee = ledger.ComposedGuarantee(Delta(1e-5));
  EXPECT_NEAR(
      guarantee.epsilon,
      TrainingRunEpsilon(NoiseMultiplier(2.0), SamplingRate(0.01), 100,
                         Delta(1e-5)).value() + 0.5,
      1e-9);
}

TEST(PrivacyLedgerTest, ReportMentionsEventsAndGuarantee) {
  PrivacyLedger ledger;
  ledger.RecordSubsampledGaussian(NoiseMultiplier(1.0), SamplingRate(0.05), 10,
                                  "demo");
  const std::string report = ledger.Report(Delta(1e-5));
  EXPECT_NE(report.find("subsampled-gaussian"), std::string::npos);
  EXPECT_NE(report.find("demo"), std::string::npos);
  EXPECT_NE(report.find(")-DP"), std::string::npos);
}

TEST(PrivacyLedgerTest, ReportStatesRequestedDeltaForPureLaplace) {
  // Regression: a pure-Laplace ledger composes to (eps, 0)-DP, and the
  // report used to show only that 0 — leaving the delta the caller asked
  // about out of the audit trail entirely.
  PrivacyLedger ledger;
  ledger.RecordLaplace(Epsilon(0.25), 4, "hyperparameter queries");
  const std::string report = ledger.Report(Delta(1e-5));
  EXPECT_NE(report.find("requested delta=1e-05"), std::string::npos);
  // No Gaussian events: no RDP order to report.
  EXPECT_EQ(report.find("optimal RDP order"), std::string::npos);
}

TEST(PrivacyLedgerTest, ReportSurfacesOptimalRdpOrder) {
  PrivacyLedger ledger;
  ledger.RecordSubsampledGaussian(NoiseMultiplier(1.0), SamplingRate(0.01),
                                  500);
  const int64_t order = ledger.OptimalOrder(Delta(1e-5));
  EXPECT_GT(order, 0);
  const std::string report = ledger.Report(Delta(1e-5));
  EXPECT_NE(
      report.find("optimal RDP order: " + std::to_string(order)),
      std::string::npos);
  EXPECT_NE(report.find("requested delta="), std::string::npos);
}

TEST(PrivacyLedgerTest, OptimalOrderMatchesAccountant) {
  PrivacyLedger ledger;
  ledger.RecordSubsampledGaussian(NoiseMultiplier(1.5), SamplingRate(0.02),
                                  300);
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(1.5),
                                        SamplingRate(0.02), 300);
  EXPECT_EQ(ledger.OptimalOrder(Delta(1e-5)),
            accountant.GetOptimalOrder(Delta(1e-5)));
  // Laplace events do not disturb the Gaussian order.
  ledger.RecordLaplace(Epsilon(0.1));
  EXPECT_EQ(ledger.OptimalOrder(Delta(1e-5)),
            accountant.GetOptimalOrder(Delta(1e-5)));
}

}  // namespace
}  // namespace geodp
