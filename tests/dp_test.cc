// Tests for the DP substrate: the classic Gaussian calibration, composition
// theorems and the RDP accountant.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dp/composition.h"
#include "dp/gaussian_mechanism.h"
#include "dp/rdp_accountant.h"

namespace geodp {
namespace {

TEST(GaussianCalibrationTest, SigmaFormula) {
  const double sigma = GaussianSigmaForEpsilonDelta(1.0, 1e-5);
  EXPECT_NEAR(sigma, std::sqrt(2.0 * std::log(1.25e5)), 1e-9);
}

TEST(GaussianCalibrationTest, RoundTrip) {
  for (double eps : {0.1, 1.0, 4.9, 15.3}) {
    const double sigma = GaussianSigmaForEpsilonDelta(eps, 1e-5);
    EXPECT_NEAR(GaussianEpsilonForSigma(sigma, 1e-5), eps, 1e-9);
  }
}

TEST(GaussianCalibrationTest, PaperSigmaEpsilonTable) {
  // Paper Fig. 3 caption: sigma in {1e-4,...,10} corresponds to epsilon in
  // {484.5, 153.2, 48.5, 15.3, 4.9, 1.5} at delta=1e-5 — i.e. the classic
  // calibration evaluated at sigma in {1e-2, ..., 10} after the paper's
  // sensitivity conventions. We check the monotone mapping and two anchors.
  EXPECT_NEAR(GaussianEpsilonForSigma(1.0, 1e-5), 4.85, 0.05);
  EXPECT_NEAR(GaussianEpsilonForSigma(10.0, 1e-5), 0.485, 0.005);
  EXPECT_GT(GaussianEpsilonForSigma(0.1, 1e-5),
            GaussianEpsilonForSigma(1.0, 1e-5));
}

TEST(CompositionTest, BasicComposition) {
  const PrivacyGuarantee total = BasicComposition({0.1, 1e-6}, 100);
  EXPECT_NEAR(total.epsilon, 10.0, 1e-9);
  EXPECT_NEAR(total.delta, 1e-4, 1e-12);
}

TEST(CompositionTest, AdvancedBeatsBasicForManySteps) {
  const PrivacyGuarantee per_step{0.01, 0.0};
  const PrivacyGuarantee basic = BasicComposition(per_step, 10000);
  const PrivacyGuarantee advanced =
      AdvancedComposition(per_step, 10000, 1e-5);
  EXPECT_LT(advanced.epsilon, basic.epsilon);
}

TEST(CompositionTest, BasicBeatsAdvancedForFewSteps) {
  const PrivacyGuarantee per_step{0.01, 0.0};
  const PrivacyGuarantee basic = BasicComposition(per_step, 2);
  const PrivacyGuarantee advanced = AdvancedComposition(per_step, 2, 1e-5);
  EXPECT_NEAR(basic.epsilon, 0.02, 1e-12);
  EXPECT_LT(basic.epsilon, advanced.epsilon);
}

TEST(CompositionTest, AdvancedFormula) {
  const PrivacyGuarantee per_step{0.1, 1e-7};
  const PrivacyGuarantee total = AdvancedComposition(per_step, 100, 1e-5);
  const double expected =
      std::sqrt(2.0 * 100.0 * std::log(1e5)) * 0.1 +
      100.0 * 0.1 * (std::exp(0.1) - 1.0);
  EXPECT_NEAR(total.epsilon, expected, 1e-9);
  EXPECT_NEAR(total.delta, 100.0 * 1e-7 + 1e-5, 1e-15);
}

TEST(RdpTest, GaussianRdpFormula) {
  EXPECT_DOUBLE_EQ(GaussianRdp(2.0, 8.0), 1.0);
  EXPECT_DOUBLE_EQ(GaussianRdp(1.0, 2.0), 1.0);
}

TEST(RdpTest, SubsampledZeroRateIsFree) {
  EXPECT_DOUBLE_EQ(SubsampledGaussianRdp(1.0, 0.0, 8), 0.0);
}

TEST(RdpTest, SubsampledFullRateEqualsGaussian) {
  EXPECT_DOUBLE_EQ(SubsampledGaussianRdp(1.5, 1.0, 8),
                   GaussianRdp(1.5, 8.0));
}

TEST(RdpTest, SubsamplingAmplifiesPrivacy) {
  for (int64_t alpha : {2, 4, 16, 64}) {
    const double subsampled = SubsampledGaussianRdp(1.0, 0.01, alpha);
    const double full = GaussianRdp(1.0, static_cast<double>(alpha));
    EXPECT_LT(subsampled, full) << "alpha=" << alpha;
  }
}

TEST(RdpTest, SubsampledRdpIncreasesWithRate) {
  const double lo = SubsampledGaussianRdp(1.0, 0.01, 8);
  const double hi = SubsampledGaussianRdp(1.0, 0.1, 8);
  EXPECT_LT(lo, hi);
}

TEST(RdpTest, SubsampledRdpDecreasesWithSigma) {
  const double noisy = SubsampledGaussianRdp(4.0, 0.05, 8);
  const double less_noisy = SubsampledGaussianRdp(0.5, 0.05, 8);
  EXPECT_LT(noisy, less_noisy);
}

TEST(RdpAccountantTest, DefaultOrdersStartAtTwo) {
  const auto orders = RdpAccountant::DefaultOrders();
  EXPECT_EQ(orders.front(), 2);
  EXPECT_EQ(orders.back(), 1024);
}

TEST(RdpAccountantTest, EpsilonGrowsWithSteps) {
  RdpAccountant a, b;
  a.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.01), 100);
  b.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.01), 1000);
  EXPECT_LT(a.GetEpsilon(Delta(1e-5)), b.GetEpsilon(Delta(1e-5)));
}

TEST(RdpAccountantTest, EpsilonShrinksWithSigma) {
  RdpAccountant a, b;
  a.AddSubsampledGaussianSteps(NoiseMultiplier(0.5), SamplingRate(0.01), 100);
  b.AddSubsampledGaussianSteps(NoiseMultiplier(4.0), SamplingRate(0.01), 100);
  EXPECT_GT(a.GetEpsilon(Delta(1e-5)), b.GetEpsilon(Delta(1e-5)));
}

TEST(RdpAccountantTest, StepsCompose) {
  RdpAccountant once, twice;
  once.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.02),
                                  200);
  twice.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.02),
                                   100);
  twice.AddSubsampledGaussianSteps(NoiseMultiplier(1.0), SamplingRate(0.02),
                                   100);
  EXPECT_NEAR(once.GetEpsilon(Delta(1e-5)), twice.GetEpsilon(Delta(1e-5)),
              1e-9);
}

TEST(RdpAccountantTest, FullGaussianMatchesClosedFormConversion) {
  // For the un-subsampled Gaussian, eps(alpha) = T*alpha/(2 sigma^2) +
  // log(1/delta)/(alpha-1); the accountant must find the min over orders.
  const double sigma = 2.0;
  const int64_t steps = 10;
  RdpAccountant accountant;
  accountant.AddGaussianSteps(NoiseMultiplier(sigma), steps);
  double expected = 1e300;
  for (int64_t alpha : RdpAccountant::DefaultOrders()) {
    const double a = static_cast<double>(alpha);
    expected = std::min(
        expected, steps * a / (2.0 * sigma * sigma) +
                      std::log(1e5) / (a - 1.0));
  }
  EXPECT_NEAR(accountant.GetEpsilon(Delta(1e-5)), expected, 1e-12);
}

TEST(RdpAccountantTest, TighterThanAdvancedComposition) {
  // RDP accounting of a realistic DP-SGD run should beat advanced
  // composition of per-step guarantees.
  const double sigma = 2.0;
  const double q = 0.01;
  const int64_t steps = 1000;
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(sigma),
                                        SamplingRate(q), steps);
  const double rdp_eps = accountant.GetEpsilon(Delta(1e-5));

  const double per_step_eps = GaussianEpsilonForSigma(sigma, 1e-6);
  const PrivacyGuarantee adv =
      AdvancedComposition({per_step_eps, 1e-6}, steps, 1e-6);
  EXPECT_LT(rdp_eps, adv.epsilon);
}

TEST(RdpAccountantTest, OptimalOrderIsTracked) {
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(1.0),
                                        SamplingRate(0.01), 500);
  const int64_t order = accountant.GetOptimalOrder(Delta(1e-5));
  const double eps = accountant.GetEpsilon(Delta(1e-5));
  // Recompute epsilon at the reported order.
  const auto& orders = accountant.orders();
  const auto& rdp = accountant.cumulative_rdp();
  for (size_t i = 0; i < orders.size(); ++i) {
    if (orders[i] == order) {
      const double a = static_cast<double>(order);
      EXPECT_NEAR(eps, rdp[i] + std::log(1e5) / (a - 1.0), 1e-12);
    }
  }
}

TEST(RdpAccountantTest, ZeroStepsZeroEpsilonPlusConversionTerm) {
  RdpAccountant accountant;
  // With no steps, epsilon is just the minimal conversion overhead.
  const double eps = accountant.GetEpsilon(Delta(1e-5));
  EXPECT_NEAR(eps, std::log(1e5) / (1024.0 - 1.0), 1e-9);
}

TEST(RdpAccountantTest, SnapshotReportsZeroBeforeAnySpend) {
  // Unlike GetEpsilon (which reports the vacuous conversion term), a
  // snapshot of an untouched accountant is all zeros — what the per-step
  // telemetry should show before the first release.
  const RdpAccountant accountant;
  const RdpSnapshot snapshot = accountant.Snapshot(Delta(1e-5));
  EXPECT_EQ(snapshot.epsilon, 0.0);
  EXPECT_EQ(snapshot.optimal_order, 0);
  EXPECT_EQ(snapshot.total_steps, 0);
}

TEST(RdpAccountantTest, SnapshotMatchesGettersAfterSpend) {
  RdpAccountant accountant;
  accountant.AddSubsampledGaussianSteps(NoiseMultiplier(1.0),
                                        SamplingRate(0.01), 100);
  accountant.AddGaussianSteps(NoiseMultiplier(2.0), 5);
  for (const double delta : {1e-3, 1e-5, 1e-8, 0.5}) {
    const RdpSnapshot snapshot = accountant.Snapshot(Delta(delta));
    EXPECT_EQ(snapshot.epsilon, accountant.GetEpsilon(Delta(delta)));
    EXPECT_EQ(snapshot.optimal_order,
              accountant.GetOptimalOrder(Delta(delta)));
    EXPECT_EQ(snapshot.total_steps, 105);
  }
  EXPECT_EQ(accountant.total_steps(), 105);
}

// One accounting call: `steps` releases at (sigma, rate). Rate 1 goes
// through AddGaussianSteps, anything else through the subsampled path.
struct Release {
  double sigma;
  double rate;
  int64_t steps;
};

void Account(RdpAccountant& accountant, const Release& release) {
  if (release.rate == 1.0) {
    accountant.AddGaussianSteps(NoiseMultiplier(release.sigma), release.steps);
  } else {
    accountant.AddSubsampledGaussianSteps(NoiseMultiplier(release.sigma),
                                          SamplingRate(release.rate),
                                          release.steps);
  }
}

// The cumulative RDP the accountant must hold after `releases`: the same
// per-order sum, with every per-step value evaluated afresh from the series.
std::vector<double> HandRolledRdp(const std::vector<Release>& releases) {
  const std::vector<int64_t> orders = RdpAccountant::DefaultOrders();
  std::vector<double> rdp(orders.size(), 0.0);
  for (const Release& release : releases) {
    for (size_t i = 0; i < orders.size(); ++i) {
      const double per_step =
          release.rate == 1.0
              ? GaussianRdp(release.sigma, static_cast<double>(orders[i]))
              : SubsampledGaussianRdp(release.sigma, release.rate, orders[i]);
      rdp[i] += static_cast<double>(release.steps) * per_step;
    }
  }
  return rdp;
}

double HandRolledEpsilon(const std::vector<double>& rdp, double delta) {
  const std::vector<int64_t> orders = RdpAccountant::DefaultOrders();
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < orders.size(); ++i) {
    const double alpha = static_cast<double>(orders[i]);
    best = std::min(best, rdp[i] + std::log(1.0 / delta) / (alpha - 1.0));
  }
  return best;
}

void ExpectBitsMatchHandRolled(const std::vector<Release>& releases) {
  RdpAccountant accountant;
  int64_t steps = 0;
  for (const Release& release : releases) {
    Account(accountant, release);
    steps += release.steps;
  }
  const std::vector<double> expected = HandRolledRdp(releases);
  EXPECT_EQ(accountant.cumulative_rdp(), expected);
  EXPECT_EQ(accountant.total_steps(), steps);
  EXPECT_EQ(accountant.GetEpsilon(Delta(1e-5)),
            HandRolledEpsilon(expected, 1e-5));
}

TEST(RdpAccountantTest, SingleStepAddsMatchHandRolledSum) {
  // The trainer's pattern: one call per step with the same (sigma, q).
  ExpectBitsMatchHandRolled(std::vector<Release>(1000, {1.1, 0.05, 1}));
}

TEST(RdpAccountantTest, InterleavedMechanismsMatchHandRolledSum) {
  // (sigma1, q2) shares its sigma with one mechanism and its rate with
  // another, so a curve looked up by either alone is wrong.
  std::vector<Release> releases;
  for (int64_t t = 0; t < 50; ++t) {
    releases.push_back({1.0, 0.01, 1});
    releases.push_back({2.5, 0.04, 1 + t % 3});
    releases.push_back({1.0, 0.04, 1});
    releases.push_back({3.0, 1.0, 2});
  }
  ExpectBitsMatchHandRolled(releases);
}

TEST(RdpAccountantTest, MoreMechanismsThanCachedCurvesMatchHandRolledSum) {
  // Seven distinct (sigma, q) pairs, cycled and then revisited in reverse,
  // so every curve is evicted and recomputed several times.
  const std::vector<Release> pairs = {
      {0.8, 0.01, 1}, {0.8, 0.02, 1}, {1.2, 0.02, 1}, {1.2, 0.01, 1},
      {2.0, 0.10, 1}, {2.0, 1.0, 1},  {4.0, 0.30, 1}};
  std::vector<Release> releases;
  for (int round = 0; round < 6; ++round) {
    for (const Release& pair : pairs) releases.push_back(pair);
    for (auto it = pairs.rbegin(); it != pairs.rend(); ++it) {
      releases.push_back(*it);
    }
  }
  ExpectBitsMatchHandRolled(releases);
}

TEST(RdpAccountantTest, RestoreMidRunThenContinueEqualsUninterruptedRun) {
  std::vector<Release> releases;
  for (int64_t t = 0; t < 200; ++t) {
    releases.push_back({1.1, 0.05, 1});
    if (t % 20 == 0) releases.push_back({2.0, 0.02, 3});
  }
  const size_t cut = releases.size() / 2;
  RdpAccountant uninterrupted;
  RdpAccountant before_crash;
  for (size_t i = 0; i < releases.size(); ++i) {
    Account(uninterrupted, releases[i]);
    if (i < cut) Account(before_crash, releases[i]);
  }
  // A fresh accountant (as after a restart) and one that has already
  // accounted other releases both resume to the uninterrupted bits.
  RdpAccountant fresh;
  RdpAccountant warm;
  Account(warm, {1.1, 0.05, 7});
  Account(warm, {0.7, 0.3, 2});
  for (RdpAccountant* resumed : {&fresh, &warm}) {
    const Status restored = resumed->RestoreState(
        before_crash.orders(), before_crash.cumulative_rdp(),
        before_crash.total_steps());
    ASSERT_TRUE(restored.ok());
    for (size_t i = cut; i < releases.size(); ++i) {
      Account(*resumed, releases[i]);
    }
    EXPECT_EQ(resumed->cumulative_rdp(), uninterrupted.cumulative_rdp());
    EXPECT_EQ(resumed->total_steps(), uninterrupted.total_steps());
    EXPECT_EQ(resumed->GetEpsilon(Delta(1e-5)),
              uninterrupted.GetEpsilon(Delta(1e-5)));
  }
}

}  // namespace
}  // namespace geodp
