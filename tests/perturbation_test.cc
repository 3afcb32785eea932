// Tests for the DP and GeoDP perturbers (paper Eq. 8 and Algorithm 1) and
// the privacy-region math, including the headline geometric properties:
// GeoDP adds unbiased direction noise tunable via beta (Lemma 1), while
// DP's direction error cannot be reduced by clipping (Corollary 2).

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>

#include <gtest/gtest.h>

#include "base/crc32.h"
#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/thread_pool.h"
#include "core/perturbation.h"
#include "core/privacy_region.h"
#include "core/spherical.h"
#include "optim/geodp_sgd.h"
#include "stats/summary.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

constexpr double kPi = std::numbers::pi;

PerturbationOptions BaseOptions(double c, int64_t b, double sigma) {
  PerturbationOptions options;
  options.clip_threshold = c;
  options.batch_size = b;
  options.noise_multiplier = sigma;
  return options;
}

TEST(DpPerturberTest, ZeroSigmaIsIdentity) {
  const DpPerturber perturber(BaseOptions(0.1, 4, 0.0));
  Rng rng(1);
  const Tensor g = Tensor::Vector({0.5f, -0.25f, 0.1f});
  EXPECT_TRUE(AllClose(perturber.Perturb(g, rng), g));
}

TEST(DpPerturberTest, CoordinateNoiseStddevFormula) {
  const DpPerturber perturber(BaseOptions(0.2, 8, 4.0));
  EXPECT_DOUBLE_EQ(perturber.CoordinateNoiseStddev(), 0.2 * 4.0 / 8.0);
}

TEST(DpPerturberTest, EmpiricalNoiseVarianceMatches) {
  const DpPerturber perturber(BaseOptions(0.5, 2, 2.0));
  const double expected_stddev = perturber.CoordinateNoiseStddev();
  Rng rng(7);
  const Tensor g({64});
  RunningStat stat;
  for (int trial = 0; trial < 500; ++trial) {
    const Tensor noisy = perturber.Perturb(g, rng);
    for (int64_t i = 0; i < noisy.numel(); ++i) stat.Add(noisy[i]);
  }
  EXPECT_NEAR(stat.mean(), 0.0, expected_stddev * 0.05);
  EXPECT_NEAR(stat.stddev(), expected_stddev, expected_stddev * 0.05);
}

TEST(DpPerturberTest, NoiseIsUnbiasedOnGradient) {
  const DpPerturber perturber(BaseOptions(0.1, 4, 1.0));
  Rng rng(11);
  const Tensor g = Tensor::Vector({0.3f, -0.2f, 0.05f, 0.0f});
  Tensor mean({4});
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    mean.AddInPlace(perturber.Perturb(g, rng));
  }
  mean.ScaleInPlace(1.0f / trials);
  EXPECT_LT(MaxAbsDiff(mean, g), 3.0 * perturber.CoordinateNoiseStddev() /
                                     std::sqrt(static_cast<double>(trials)) *
                                     3.0 +
                                     1e-3);
}

TEST(GeoDpPerturberTest, ZeroSigmaRoundTripsExactly) {
  GeoDpOptions options;
  options.base = BaseOptions(0.1, 4, 0.0);
  options.beta = 0.5;
  const GeoDpPerturber perturber(options);
  Rng rng(3);
  const Tensor g = Tensor::Vector({0.5f, -0.25f, 0.1f, 0.9f});
  EXPECT_LT(MaxAbsDiff(perturber.Perturb(g, rng), g), 1e-5);
}

TEST(GeoDpPerturberTest, NoiseStddevFormulas) {
  GeoDpOptions options;
  options.base = BaseOptions(0.1, 10, 2.0);
  options.beta = 0.25;
  const GeoDpPerturber perturber(options);
  EXPECT_DOUBLE_EQ(perturber.MagnitudeNoiseStddev(), 0.1 * 2.0 / 10.0);
  const int64_t d = 14;
  EXPECT_NEAR(perturber.DirectionNoiseStddev(d),
              std::sqrt(static_cast<double>(d) + 2.0) * 0.25 * kPi * 2.0 /
                  10.0,
              1e-12);
}

TEST(GeoDpPerturberTest, DirectionNoiseIsUnbiasedOnAngles) {
  GeoDpOptions options;
  options.base = BaseOptions(0.1, 64, 1.0);
  options.beta = 0.05;
  const GeoDpPerturber perturber(options);
  Rng rng(13);
  Rng data_rng(17);
  const Tensor g = Tensor::Randn({6}, data_rng);
  const SphericalCoordinates original = ToSpherical(g);
  std::vector<double> mean_angles(original.angles.size(), 0.0);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const SphericalCoordinates noisy =
        perturber.PerturbSpherical(original, rng);
    for (size_t z = 0; z < mean_angles.size(); ++z) {
      mean_angles[z] += noisy.angles[z];
    }
  }
  const double tol = 4.0 * perturber.DirectionNoiseStddev(6) /
                     std::sqrt(static_cast<double>(trials));
  for (size_t z = 0; z < mean_angles.size(); ++z) {
    EXPECT_NEAR(mean_angles[z] / trials, original.angles[z], tol);
  }
}

TEST(GeoDpPerturberTest, SmallerBetaGivesSmallerDirectionError) {
  Rng data_rng(19);
  const Tensor g = Tensor::Randn({32}, data_rng);
  const SphericalCoordinates original = ToSpherical(g);

  auto direction_mse = [&](double beta) {
    GeoDpOptions options;
    options.base = BaseOptions(0.1, 16, 1.0);
    options.beta = beta;
    const GeoDpPerturber perturber(options);
    Rng rng(23);
    double sum = 0.0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
      const SphericalCoordinates noisy =
          perturber.PerturbSpherical(original, rng);
      sum += AngleSquaredDistance(original.angles, noisy.angles);
    }
    return sum / trials;
  };

  const double mse_small = direction_mse(0.01);
  const double mse_large = direction_mse(1.0);
  EXPECT_LT(mse_small, mse_large);
  // Variance scales with beta^2: expect roughly four orders of magnitude.
  EXPECT_LT(mse_small * 100.0, mse_large);
}

TEST(GeoDpPerturberTest, Lemma1GeoDpBeatsDpOnDirectionForSomeBeta) {
  // For a fixed gradient and noise level, GeoDP with a small enough beta
  // must achieve lower direction MSE than traditional DP (Lemma 1).
  Rng data_rng(29);
  const Tensor g = Scale(Tensor::Randn({24}, data_rng), 0.05f);
  const SphericalCoordinates original = ToSpherical(g);
  const int trials = 300;

  const DpPerturber dp(BaseOptions(0.1, 8, 1.0));
  Rng dp_rng(31);
  double dp_mse = 0.0;
  for (int t = 0; t < trials; ++t) {
    const SphericalCoordinates noisy = ToSpherical(dp.Perturb(g, dp_rng));
    dp_mse += AngleSquaredDistance(original.angles, noisy.angles);
  }
  dp_mse /= trials;

  GeoDpOptions options;
  options.base = BaseOptions(0.1, 8, 1.0);
  options.beta = 0.001;
  const GeoDpPerturber geo(options);
  Rng geo_rng(37);
  double geo_mse = 0.0;
  for (int t = 0; t < trials; ++t) {
    const SphericalCoordinates noisy = ToSpherical(geo.Perturb(g, geo_rng));
    geo_mse += AngleSquaredDistance(original.angles, noisy.angles);
  }
  geo_mse /= trials;

  EXPECT_LT(geo_mse, dp_mse);
}

TEST(GeoDpPerturberTest, Corollary2ClippingDoesNotChangeDpDirectionError) {
  // Scaling the clipped gradient and the noise by the same factor leaves
  // the perturbed direction unchanged (paper Example 1 / Corollary 2).
  Rng data_rng(41);
  const Tensor g = Tensor::Randn({16}, data_rng);

  const double sigma = 1.0;
  Rng rng_a(43), rng_b(43);  // identical noise streams
  const DpPerturber dp_c1(BaseOptions(1.0, 4, sigma));
  const DpPerturber dp_c2(BaseOptions(0.5, 4, sigma));
  // Clip to the two thresholds (g has norm >= both with high probability).
  const double norm = g.L2Norm();
  const Tensor g1 = Scale(g, static_cast<float>(1.0 / std::max(1.0, norm / 1.0)));
  const Tensor g2 = Scale(g, static_cast<float>(1.0 / std::max(1.0, norm / 0.5)));
  const SphericalCoordinates dir1 = ToSpherical(dp_c1.Perturb(g1, rng_a));
  const SphericalCoordinates dir2 = ToSpherical(dp_c2.Perturb(g2, rng_b));
  for (size_t z = 0; z < dir1.angles.size(); ++z) {
    EXPECT_NEAR(dir1.angles[z], dir2.angles[z], 1e-4);
  }
}

TEST(GeoDpPerturberTest, ClampMagnitudeOption) {
  GeoDpOptions options;
  options.base = BaseOptions(0.1, 1, 50.0);  // huge noise
  options.beta = 0.5;
  options.clamp_magnitude = true;
  const GeoDpPerturber perturber(options);
  Rng rng(47);
  SphericalCoordinates c;
  c.magnitude = 0.01;
  c.angles = {0.5, 0.5, 0.5};
  for (int t = 0; t < 100; ++t) {
    EXPECT_GE(perturber.PerturbSpherical(c, rng).magnitude, 0.0);
  }
}

TEST(GeoDpPerturberTest, WrapHandlingKeepsAnglesInRange) {
  GeoDpOptions options;
  options.base = BaseOptions(0.1, 1, 20.0);
  options.beta = 1.0;
  options.angle_handling = AngleHandling::kWrap;
  const GeoDpPerturber perturber(options);
  Rng rng(53);
  SphericalCoordinates c;
  c.magnitude = 1.0;
  c.angles = {1.0, 1.0, 1.0, 0.2};
  for (int t = 0; t < 50; ++t) {
    const SphericalCoordinates noisy = perturber.PerturbSpherical(c, rng);
    for (size_t z = 0; z + 1 < noisy.angles.size(); ++z) {
      EXPECT_GE(noisy.angles[z], 0.0);
      EXPECT_LE(noisy.angles[z], kPi);
    }
    EXPECT_GE(noisy.angles.back(), -kPi);
    EXPECT_LE(noisy.angles.back(), kPi);
  }
}

TEST(GeoDpPerturberTest, PerturbedMagnitudeMatchesSphericalPath) {
  // Perturb() must agree with PerturbSpherical() + ToCartesian() given the
  // same noise stream.
  GeoDpOptions options;
  options.base = BaseOptions(0.1, 4, 1.0);
  options.beta = 0.2;
  const GeoDpPerturber perturber(options);
  Rng rng_a(59), rng_b(59);
  Rng data_rng(61);
  const Tensor g = Tensor::Randn({12}, data_rng);
  const Tensor direct = perturber.Perturb(g, rng_a);
  const Tensor via_spherical =
      ToCartesian(perturber.PerturbSpherical(ToSpherical(g), rng_b));
  EXPECT_LT(MaxAbsDiff(direct, via_spherical), 1e-6);
}

TEST(PrivacyRegionTest, SensitivityFormula) {
  const DirectionSensitivity s = ComputeDirectionSensitivity(100, 0.1);
  EXPECT_DOUBLE_EQ(s.per_angle, 0.1 * kPi);
  EXPECT_DOUBLE_EQ(s.last_angle, 0.2 * kPi);
  EXPECT_NEAR(s.total_l2, std::sqrt(102.0) * 0.1 * kPi, 1e-12);
}

TEST(PrivacyRegionTest, SensitivityDecomposition) {
  // total^2 == (d-2) per_angle^2 + last_angle^2.
  for (int64_t d : {2, 3, 10, 1000}) {
    const DirectionSensitivity s = ComputeDirectionSensitivity(d, 0.3);
    const double composed = std::sqrt(
        static_cast<double>(d - 2) * s.per_angle * s.per_angle +
        s.last_angle * s.last_angle);
    EXPECT_NEAR(s.total_l2, composed, 1e-9) << "d=" << d;
  }
}

TEST(PrivacyRegionTest, GeoDpPrivacyReport) {
  const GeoDpPrivacyReport report = AnalyzeGeoDpPrivacy(2.0, 1e-5, 0.25);
  EXPECT_GT(report.epsilon, 0.0);
  EXPECT_DOUBLE_EQ(report.delta, 1e-5);
  EXPECT_DOUBLE_EQ(report.delta_prime_upper_bound, 0.75);
  EXPECT_DOUBLE_EQ(report.total_delta_upper_bound, 1e-5 + 0.75);
}

TEST(PrivacyRegionTest, BetaOneHasNoExtraDelta) {
  const GeoDpPrivacyReport report = AnalyzeGeoDpPrivacy(1.0, 1e-5, 1.0);
  EXPECT_DOUBLE_EQ(report.delta_prime_upper_bound, 0.0);
}

TEST(GeoLaplacePerturberTest, NoiseScaleFormulas) {
  GeoLaplaceOptions options;
  options.clip_threshold = 0.2;
  options.batch_size = 10;
  options.magnitude_epsilon = 0.5;
  options.direction_epsilon = 2.0;
  options.beta = 0.1;
  const GeoLaplacePerturber perturber(options);
  EXPECT_DOUBLE_EQ(perturber.MagnitudeNoiseScale(), 0.2 / (0.5 * 10.0));
  EXPECT_NEAR(perturber.DirectionNoiseScale(16),
              16.0 * 0.1 * kPi / (2.0 * 10.0), 1e-12);
}

TEST(GeoLaplacePerturberTest, UnbiasedOnAngles) {
  GeoLaplaceOptions options;
  options.clip_threshold = 0.1;
  options.batch_size = 64;
  options.magnitude_epsilon = 2.0;
  options.direction_epsilon = 2.0;
  options.beta = 0.01;
  const GeoLaplacePerturber perturber(options);
  Rng data_rng(71);
  const Tensor g = Tensor::Randn({8}, data_rng);
  const SphericalCoordinates original = ToSpherical(g);
  Rng rng(72);
  std::vector<double> mean_angles(original.angles.size(), 0.0);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const SphericalCoordinates noisy = ToSpherical(perturber.Perturb(g, rng));
    for (size_t z = 0; z < mean_angles.size(); ++z) {
      mean_angles[z] += noisy.angles[z];
    }
  }
  for (size_t z = 0; z < mean_angles.size(); ++z) {
    EXPECT_NEAR(mean_angles[z] / trials, original.angles[z], 0.02);
  }
}

TEST(GeoLaplacePerturberTest, HigherEpsilonLessNoise) {
  Rng data_rng(73);
  const Tensor g = Scale(Tensor::Randn({16}, data_rng), 0.05f);
  const SphericalCoordinates original = ToSpherical(g);
  auto direction_mse = [&](double eps) {
    GeoLaplaceOptions options;
    options.clip_threshold = 0.1;
    options.batch_size = 16;
    options.magnitude_epsilon = eps;
    options.direction_epsilon = eps;
    options.beta = 0.05;
    const GeoLaplacePerturber perturber(options);
    Rng rng(74);
    double sum = 0.0;
    for (int t = 0; t < 200; ++t) {
      const SphericalCoordinates noisy =
          ToSpherical(perturber.Perturb(g, rng));
      sum += AngleSquaredDistance(original.angles, noisy.angles);
    }
    return sum / 200.0;
  };
  EXPECT_LT(direction_mse(10.0), direction_mse(0.5));
}

TEST(PerturberFactoryTest, MakersReturnCorrectTypes) {
  auto dp = MakePerturberForMethod(PerturbationMethod::kDp,
                                   BaseOptions(0.1, 2, 1.0), /*beta=*/0.0);
  EXPECT_EQ(dp->name(), "DP");
  auto geo = MakePerturberForMethod(PerturbationMethod::kGeoDp,
                                    BaseOptions(0.1, 2, 1.0), /*beta=*/1.0);
  EXPECT_EQ(geo->name(), "GeoDP");
}

// Golden release fingerprints: CRC-32 of the float bytes GeoDP and
// GeoDP-Laplace release on two high-dimensional cases whose spherical
// round trip underflows into a long tail of signed zeros. The values are
// fixed per SIMD tier (the AVX2 transcendentals round differently from
// libm) and must hold at 1 and 8 threads. On these cases the two tiers'
// last-bit differences in double precision vanish when the release is
// rounded to float, so both tiers' values happen to coincide.
struct GoldenCase {
  int64_t dimension;
  int64_t batch_size;
  double beta;
  std::array<uint32_t, 2> geodp_crc;  // indexed by SimdTier: scalar, avx2
  std::array<uint32_t, 2> laplace_crc;
};

uint32_t ReleaseCrc(const Tensor& release) {
  return Crc32(release.data(),
               static_cast<size_t>(release.numel()) * sizeof(float));
}

TEST(GoldenReleaseTest, GeoDpAndGeoLaplaceFingerprintsPerTier) {
  const std::array<GoldenCase, 2> cases = {{
      {158986, 64, 0.01, {312716126u, 312716126u},
       {4149443797u, 4149443797u}},
      {80000, 512, 0.1, {3386953142u, 3386953142u},
       {276002395u, 276002395u}},
  }};
  const SimdTier entry_tier = ActiveSimdTier();
  const int entry_threads = GetGlobalThreadCount();
  for (const GoldenCase& golden : cases) {
    Rng data_rng(static_cast<uint64_t>(golden.dimension));
    // An averaged clipped gradient: norm around C/2 with C = 1.
    const Tensor gradient = Tensor::Randn(
        {golden.dimension}, data_rng,
        static_cast<float>(0.5 / std::sqrt(static_cast<double>(
                                     golden.dimension))));
    GeoDpOptions geodp_options;
    geodp_options.base = BaseOptions(1.0, golden.batch_size, 1.0);
    geodp_options.beta = golden.beta;
    const GeoDpPerturber geodp(geodp_options);
    GeoLaplaceOptions laplace_options;
    laplace_options.clip_threshold = 1.0;
    laplace_options.batch_size = golden.batch_size;
    laplace_options.beta = golden.beta;
    const GeoLaplacePerturber laplace(laplace_options);
    for (const SimdTier tier : AvailableSimdTiers()) {
      SetSimdTier(tier);
      const auto t = static_cast<size_t>(tier);
      for (const int threads : {1, 8}) {
        SetGlobalThreadCount(threads);
        SCOPED_TRACE("d=" + std::to_string(golden.dimension) + " tier " +
                     SimdTierName(tier) + " threads " +
                     std::to_string(threads));
        Rng geodp_rng(2025);
        const Tensor release = geodp.Perturb(gradient, geodp_rng);
        EXPECT_EQ(ReleaseCrc(release), golden.geodp_crc[t]);
        // The case must reach the underflowed tail: most of it is zero.
        int64_t zeros = 0;
        for (int64_t i = 0; i < release.numel(); ++i) {
          zeros += release[i] == 0.0f;
        }
        EXPECT_GT(zeros, release.numel() * 9 / 10);
        Rng laplace_rng(2026);
        EXPECT_EQ(ReleaseCrc(laplace.Perturb(gradient, laplace_rng)),
                  golden.laplace_crc[t]);
      }
    }
  }
  SetSimdTier(entry_tier);
  SetGlobalThreadCount(entry_threads);
}

}  // namespace
}  // namespace geodp
