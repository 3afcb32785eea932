// Tests for the hyper-spherical coordinate system (paper Eq. 24-27),
// including parameterized round-trip property sweeps across dimensions.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/simd/kernels.h"
#include "core/spherical.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(SphericalTest, TwoDimensionalKnownAngles) {
  // Paper Example 1: g = (1, sqrt(3)) has theta = pi/3, ||g|| = 2.
  const Tensor g = Tensor::Vector({1.0f, static_cast<float>(std::sqrt(3.0))});
  const SphericalCoordinates c = ToSpherical(g);
  EXPECT_NEAR(c.magnitude, 2.0, 1e-6);
  ASSERT_EQ(c.angles.size(), 1u);
  EXPECT_NEAR(c.angles[0], kPi / 3.0, 1e-6);
}

TEST(SphericalTest, TwoDimensionalQuadrants) {
  EXPECT_NEAR(ToSpherical(Tensor::Vector({1, 0})).angles[0], 0.0, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({0, 1})).angles[0], kPi / 2, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({-1, 0})).angles[0], kPi, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({0, -1})).angles[0], -kPi / 2, 1e-9);
  EXPECT_NEAR(ToSpherical(Tensor::Vector({-1, -1})).angles[0],
              -3.0 * kPi / 4.0, 1e-6);
}

TEST(SphericalTest, ThreeDimensionalKnownConversion) {
  // (1, 1, sqrt(2)): magnitude 2, theta1 = arctan2(sqrt(1+2), 1) = pi/3,
  // theta2 = arctan2(sqrt(2), 1).
  const float s2 = static_cast<float>(std::sqrt(2.0));
  const Tensor g = Tensor::Vector({1.0f, 1.0f, s2});
  const SphericalCoordinates c = ToSpherical(g);
  EXPECT_NEAR(c.magnitude, 2.0, 1e-6);
  ASSERT_EQ(c.angles.size(), 2u);
  EXPECT_NEAR(c.angles[0], std::atan2(std::sqrt(3.0), 1.0), 1e-6);
  EXPECT_NEAR(c.angles[1], std::atan2(std::sqrt(2.0), 1.0), 1e-6);
}

TEST(SphericalTest, ZeroVectorMapsToZero) {
  const SphericalCoordinates c = ToSpherical(Tensor::Vector({0, 0, 0, 0}));
  EXPECT_EQ(c.magnitude, 0.0);
  for (double a : c.angles) EXPECT_EQ(a, 0.0);
  const Tensor back = ToCartesian(c);
  for (int64_t i = 0; i < back.numel(); ++i) EXPECT_EQ(back[i], 0.0f);
}

TEST(SphericalTest, MagnitudeMatchesL2Norm) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor g = Tensor::Randn({16}, rng);
    EXPECT_NEAR(ToSpherical(g).magnitude, g.L2Norm(), 1e-5);
  }
}

TEST(SphericalTest, AngleRanges) {
  Rng rng(102);
  for (int trial = 0; trial < 50; ++trial) {
    const Tensor g = Tensor::Randn({8}, rng);
    const SphericalCoordinates c = ToSpherical(g);
    for (size_t z = 0; z + 1 < c.angles.size(); ++z) {
      EXPECT_GE(c.angles[z], 0.0);
      EXPECT_LE(c.angles[z], kPi);
    }
    EXPECT_GE(c.angles.back(), -kPi);
    EXPECT_LE(c.angles.back(), kPi);
  }
}

TEST(SphericalTest, ScalingPreservesDirection) {
  Rng rng(103);
  const Tensor g = Tensor::Randn({10}, rng);
  const SphericalCoordinates a = ToSpherical(g);
  const SphericalCoordinates b = ToSpherical(Scale(g, 3.5f));
  ASSERT_EQ(a.angles.size(), b.angles.size());
  for (size_t z = 0; z < a.angles.size(); ++z) {
    EXPECT_NEAR(a.angles[z], b.angles[z], 1e-5);
  }
  EXPECT_NEAR(b.magnitude, 3.5 * a.magnitude, 1e-4);
}

// Property sweep: round-trip ToCartesian(ToSpherical(g)) == g across
// dimensions.
class SphericalRoundTripTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(SphericalRoundTripTest, RoundTripRecoversVector) {
  const int64_t d = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(d));
  for (int trial = 0; trial < 10; ++trial) {
    const Tensor g = Tensor::Randn({d}, rng);
    const Tensor back = ToCartesian(ToSpherical(g));
    EXPECT_LT(MaxAbsDiff(g, back), 1e-4)
        << "dim=" << d << " trial=" << trial;
  }
}

TEST_P(SphericalRoundTripTest, RoundTripWithAxisAlignedVectors) {
  const int64_t d = GetParam();
  for (int64_t axis = 0; axis < d; ++axis) {
    Tensor g({d});
    g[axis] = 2.0f;
    const Tensor back = ToCartesian(ToSpherical(g));
    EXPECT_LT(MaxAbsDiff(g, back), 1e-5) << "dim=" << d << " axis=" << axis;
  }
}

TEST_P(SphericalRoundTripTest, RoundTripWithNegativeComponents) {
  const int64_t d = GetParam();
  Rng rng(2000 + static_cast<uint64_t>(d));
  Tensor g = Tensor::Randn({d}, rng);
  for (int64_t i = 0; i < d; ++i) g[i] = -std::fabs(g[i]);
  const Tensor back = ToCartesian(ToSpherical(g));
  EXPECT_LT(MaxAbsDiff(g, back), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Dims, SphericalRoundTripTest,
                         ::testing::Values<int64_t>(2, 3, 4, 5, 8, 16, 64,
                                                    256, 1024));

TEST(SphericalTest, AngleSquaredDistance) {
  EXPECT_DOUBLE_EQ(AngleSquaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
  EXPECT_DOUBLE_EQ(AngleSquaredDistance({1.0}, {1.0}), 0.0);
}

TEST(SphericalTest, WrapAnglesCanonicalRanges) {
  // First angles reflect into [0, pi]; last wraps into (-pi, pi].
  const auto wrapped = WrapAngles({-0.5, kPi + 0.5, 3.0 * kPi});
  EXPECT_NEAR(wrapped[0], 0.5, 1e-9);
  EXPECT_NEAR(wrapped[1], kPi - 0.5, 1e-9);
  EXPECT_NEAR(wrapped[2], kPi, 1e-9);
  const auto wrapped2 = WrapAngles({0.3, -kPi - 0.2});
  EXPECT_NEAR(wrapped2[0], 0.3, 1e-9);
  EXPECT_NEAR(wrapped2[1], kPi - 0.2, 1e-9);
}

TEST(SphericalTest, WrapAnglesBoundaryValuesStayInRangeOnEveryTier) {
  // Boundary and extreme inputs for both wrap conventions, checked on
  // every available SIMD tier: the AVX2 tier range-reduces with a
  // floor-based division instead of fmod, and the per-tier contract is
  // that results still land inside the canonical ranges even at inputs
  // like 1e9*pi, where one rounding step of the reduction is larger
  // than the whole output range.
  const SimdTier entry_tier = ActiveSimdTier();
  const std::vector<double> boundary = {-kPi, 0.0, kPi, 2.0 * kPi, 1e9 * kPi};
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    for (const double theta : boundary) {
      SCOPED_TRACE("theta " + std::to_string(theta));
      // Both positions: as a non-final angle (reflects into [0, pi]) and
      // as the final angle (wraps into (-pi, pi]).
      const auto wrapped = WrapAngles({theta, theta});
      EXPECT_GE(wrapped[0], 0.0);
      EXPECT_LE(wrapped[0], kPi);
      EXPECT_GT(wrapped[1], -kPi);
      EXPECT_LE(wrapped[1], kPi);
    }
    // Exact boundary semantics at moderate angles are tier-independent.
    const auto exact = WrapAngles({-kPi, 2.0 * kPi});
    EXPECT_NEAR(exact[0], kPi, 1e-9);
    EXPECT_NEAR(exact[1], 0.0, 1e-9);
    const auto zero = WrapAngles({0.0, kPi});
    EXPECT_NEAR(zero[0], 0.0, 1e-12);
    EXPECT_NEAR(zero[1], kPi, 1e-9);
  }
  SetSimdTier(entry_tier);
}

TEST(SphericalTest, WrapAnglesScalarAndAvx2TiersAgreeClosely) {
  // The tiers may differ in the last bits (different range-reduction
  // algorithms) but must agree to high relative accuracy for angles of
  // ordinary magnitude.
  if (!SimdTierAvailable(SimdTier::kAvx2)) GTEST_SKIP() << "no AVX2 host";
  const SimdTier entry_tier = ActiveSimdTier();
  std::vector<double> angles;
  for (int i = -40; i <= 40; ++i) angles.push_back(0.37 * i);
  angles.push_back(kPi);  // final-angle slot below

  SetSimdTier(SimdTier::kScalar);
  const auto scalar = WrapAngles(angles);
  SetSimdTier(SimdTier::kAvx2);
  const auto avx2 = WrapAngles(angles);
  SetSimdTier(entry_tier);

  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_NEAR(scalar[i], avx2[i], 1e-9) << "angle " << i;
  }
}

TEST(SphericalTest, ClampAnglesSaturates) {
  const auto clamped = ClampAngles({-0.5, 4.0, -4.0});
  EXPECT_EQ(clamped[0], 0.0);
  EXPECT_NEAR(clamped[1], kPi, 1e-9);
  EXPECT_NEAR(clamped[2], -kPi, 1e-9);
}

TEST(SphericalTest, WrapIsIdentityInsideRange) {
  const std::vector<double> angles = {0.5, 2.0, -1.5};
  const auto wrapped = WrapAngles(angles);
  for (size_t i = 0; i < angles.size(); ++i) {
    EXPECT_NEAR(wrapped[i], angles[i], 1e-12);
  }
}

TEST(SphericalTest, CartesianFromExplicitAngles) {
  // magnitude 2, angles (pi/2, 0) -> (0, 2, 0).
  SphericalCoordinates c;
  c.magnitude = 2.0;
  c.angles = {kPi / 2.0, 0.0};
  const Tensor g = ToCartesian(c);
  EXPECT_NEAR(g[0], 0.0, 1e-6);
  EXPECT_NEAR(g[1], 2.0, 1e-6);
  EXPECT_NEAR(g[2], 0.0, 1e-6);
}

// Test-local copy of the historical ToCartesian: sin/cos of every angle in
// one batched call, then the full prefix product of sines with no early
// exit, so the underflowing tail runs through denormal arithmetic. Both
// SinCos tiers give position-independent results (the AVX2 tail is padded
// through the vector path), so one full-length call reproduces any
// blocking of the same kernel.
Tensor HistoricalToCartesian(const SphericalCoordinates& coords) {
  const int64_t d = coords.CartesianDim();
  Tensor g({d});
  std::vector<double> sins(static_cast<size_t>(d - 1));
  std::vector<double> coss(static_cast<size_t>(d - 1));
  simd::SinCos(coords.angles.data(), sins.data(), coss.data(), d - 1);
  double sin_product = 1.0;
  for (int64_t z = 0; z < d - 1; ++z) {
    g[z] = static_cast<float>(coords.magnitude * sin_product *
                              coss[static_cast<size_t>(z)]);
    sin_product *= sins[static_cast<size_t>(z)];
  }
  g[d - 1] = static_cast<float>(coords.magnitude * sin_product);
  return g;
}

// Test-local copy of the historical ToSpherical: full-length suffix-norm
// and head arrays, one batched sqrt and one batched atan2 over d-2 pairs.
SphericalCoordinates HistoricalToSpherical(const Tensor& g) {
  const int64_t d = g.dim(0);
  SphericalCoordinates coords;
  coords.angles.assign(static_cast<size_t>(d - 1), 0.0);
  std::vector<double> tail(static_cast<size_t>(d), 0.0);
  double sum_sq = 0.0;
  for (int64_t z = d - 1; z >= 0; --z) {
    tail[static_cast<size_t>(z)] = sum_sq;
    sum_sq += static_cast<double>(g[z]) * static_cast<double>(g[z]);
  }
  simd::SqrtArray(tail.data(), tail.data(), d);
  coords.magnitude = std::sqrt(sum_sq);
  if (coords.magnitude == 0.0) return coords;
  std::vector<double> head(static_cast<size_t>(d - 2));
  for (int64_t z = 0; z < d - 2; ++z) {
    head[static_cast<size_t>(z)] = static_cast<double>(g[z]);
  }
  simd::Atan2(tail.data(), head.data(), coords.angles.data(), d - 2);
  coords.angles[static_cast<size_t>(d - 2)] =
      std::atan2(static_cast<double>(g[d - 1]), static_cast<double>(g[d - 2]));
  return coords;
}

// Number of float elements whose bit patterns differ (so +0 vs -0 counts).
int64_t BitMismatches(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return -1;
  int64_t mismatches = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
      ++mismatches;
    }
  }
  return mismatches;
}

// Dimensions for the bit-exactness sweeps: the smallest cases, odd sizes,
// and sizes whose d-1 angles (ToCartesian) or d-2 atan2 pairs
// (ToSpherical) sit on either side of multiples of 4, 256, 512 and 1024,
// so every block or chunk edge an implementation might use is crossed.
const std::vector<int64_t>& EdgeDims() {
  static const std::vector<int64_t> dims = {
      2,   3,   4,   5,   6,   7,    9,    31,   33,   255,  257,  258,
      259, 260, 511, 513, 514, 515,  516,  1023, 1025, 1026, 1027, 1028,
      2049, 4099, 9001};
  return dims;
}

// Randomized property: ToCartesian is bit-identical to the historical
// loop on every tier. Magnitudes cover both signs of zero, negative, tiny
// and huge values; angles cover noisy directions whose sine product
// underflows mid-vector, angles far outside [0, pi], and angles whose sine
// is exactly +0 or -0 (so the running product turns into a signed zero).
TEST(SphericalTest, ToCartesianBitIdenticalToHistoricalLoopOnEveryTier) {
  const SimdTier entry_tier = ActiveSimdTier();
  const std::vector<double> magnitudes = {
      1.0, 3.7, -0.25, -2.5, 0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300,
      1e-30, 5e-324};
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    Rng rng(4242);
    int64_t coordinates = 0;
    int64_t negative_zeros = 0;
    int64_t positive_zeros = 0;
    for (const int64_t d : EdgeDims()) {
      for (size_t m = 0; m < magnitudes.size(); ++m) {
        SphericalCoordinates c;
        c.magnitude = magnitudes[m];
        c.angles.resize(static_cast<size_t>(d - 1));
        // Spread of the angle noise around pi/2: small keeps the product
        // alive for a long head, large underflows it within a few dozen
        // coordinates and throws angles well outside [0, pi].
        const double spread = (m % 3 == 0) ? 0.05 : (m % 3 == 1) ? 0.6 : 4.0;
        for (auto& angle : c.angles) {
          const double u = rng.Uniform();
          if (u < 0.002) {
            angle = 0.0;  // sin exactly +0
          } else if (u < 0.004) {
            angle = -0.0;  // sin exactly -0
          } else if (u < 0.006) {
            angle = kPi / 2;  // cos is ~6e-17, not 0
          } else if (u < 0.008) {
            angle = -37.0 * kPi;
          } else {
            angle = rng.Gaussian(kPi / 2, spread);
          }
        }
        const Tensor expected = HistoricalToCartesian(c);
        const Tensor actual = ToCartesian(c);
        ASSERT_EQ(BitMismatches(expected, actual), 0)
            << "d=" << d << " magnitude=" << c.magnitude;
        for (int64_t i = 0; i < actual.numel(); ++i) {
          if (actual[i] == 0.0f) {
            ++(std::signbit(actual[i]) ? negative_zeros : positive_zeros);
          }
        }
        coordinates += d;
      }
    }
    // The sweep must reach the underflowed tail with both zero signs.
    EXPECT_GT(negative_zeros, coordinates / 20);
    EXPECT_GT(positive_zeros, coordinates / 20);
  }
  SetSimdTier(entry_tier);
}

// A long vector whose product underflows early: most of the release is a
// signed zero, and each sign must still match the historical product's.
TEST(SphericalTest, ToCartesianUnderflowedTailKeepsHistoricalSigns) {
  const SimdTier entry_tier = ActiveSimdTier();
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    Rng rng(777);
    SphericalCoordinates c;
    c.magnitude = -0.031;
    c.angles.resize(80000);
    for (auto& angle : c.angles) {
      angle = rng.Gaussian(kPi / 2, 0.17);
    }
    const Tensor expected = HistoricalToCartesian(c);
    const Tensor actual = ToCartesian(c);
    EXPECT_EQ(BitMismatches(expected, actual), 0);
    int64_t zeros = 0;
    for (int64_t i = 0; i < actual.numel(); ++i) zeros += actual[i] == 0.0f;
    EXPECT_GT(zeros, actual.numel() / 2);
  }
  SetSimdTier(entry_tier);
}

// ToCartesian reads the zero tail's signs one 64-angle word at a time,
// counted from the first tail coordinate. Sweep where the tail starts
// (every offset mod 64, and inside the last partial word), and put NaN or
// inf on a word's first and last lane, where the word must fall back to
// SinCos and, after a NaN, the rest of the vector with it.
TEST(SphericalTest, ToCartesianTailWordsMatchHistoricalLoopOnEveryTier) {
  const SimdTier entry_tier = ActiveSimdTier();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr int64_t kCount = 3 * 64 + 17;  // angles; d = kCount + 1
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    Rng rng(4545);
    for (int64_t tail = 0; tail <= kCount; ++tail) {
      // Spoilers: none, then NaN or inf on the first and last lane of the
      // tail's first and second word.
      for (int spoiler = 0; spoiler < 9; ++spoiler) {
        SphericalCoordinates c;
        c.magnitude = (tail % 2 == 0) ? -1.7 : 2.3;
        c.angles.resize(static_cast<size_t>(kCount));
        for (int64_t z = 0; z < kCount; ++z) {
          // Before the tail sin is ~1; the angle just before it has sine
          // 1e-50, below kFloatZeroBound, so the tail starts at `tail`.
          // Tail angles have mixed quadrants, with the odd exact zero and
          // multiple of pi/2 that a word cannot read.
          double angle = rng.Gaussian(kPi / 2, 1e-3);
          if (z + 1 == tail) angle = 1e-50;
          if (z >= tail) {
            const double u = rng.Uniform();
            angle = u < 0.01   ? -0.0
                    : u < 0.02 ? kPi
                               : rng.Gaussian(kPi / 2, 2.0);
          }
          c.angles[static_cast<size_t>(z)] = angle;
        }
        if (tail == 0) c.magnitude = -0.0;
        int64_t spoiled = kCount + 1;  // index of the NaN or inf angle
        if (spoiler > 0) {
          const int64_t word = (spoiler - 1) / 4;
          const bool last_lane = ((spoiler - 1) / 2) % 2 == 1;
          spoiled = tail + 64 * word + (last_lane ? 63 : 0);
          if (spoiled >= kCount) continue;
          c.angles[static_cast<size_t>(spoiled)] =
              (spoiler % 2 == 1) ? nan : inf;
        }
        const Tensor expected = HistoricalToCartesian(c);
        const Tensor actual = ToCartesian(c);
        if (spoiler > 0 && spoiler % 2 == 0 && tier == SimdTier::kAvx2) {
          // The AVX2 SinCos maps +-inf to (+-inf, -inf), not NaN. The
          // historical loop multiplied that by its tiny nonzero product
          // and released infinities; the tail's signed zero times inf is
          // NaN, from the inf coordinate to the end.
          for (int64_t i = 0; i < actual.numel(); ++i) {
            if (i < spoiled) {
              ASSERT_EQ(std::bit_cast<uint32_t>(expected[i]),
                        std::bit_cast<uint32_t>(actual[i]))
                  << "tail=" << tail << " spoiler=" << spoiler << " i=" << i;
            } else {
              ASSERT_TRUE(std::isnan(actual[i]))
                  << "tail=" << tail << " spoiler=" << spoiler << " i=" << i;
            }
          }
          continue;
        }
        ASSERT_EQ(BitMismatches(expected, actual), 0)
            << "tail=" << tail << " spoiler=" << spoiler;
      }
    }
  }
  SetSimdTier(entry_tier);
}

// ToSpherical is bit-identical to the historical arrays-and-batches
// version on every tier, including exact zeros in the input (atan2's
// x == 0 lanes) and all-zero vectors.
TEST(SphericalTest, ToSphericalBitIdenticalToHistoricalVersionOnEveryTier) {
  const SimdTier entry_tier = ActiveSimdTier();
  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    Rng rng(4343);
    for (const int64_t d : EdgeDims()) {
      for (int variant = 0; variant < 4; ++variant) {
        Tensor g = Tensor::Randn({d}, rng, variant == 2 ? 1e-20f : 1.0f);
        if (variant == 1) {
          for (int64_t i = 0; i < d; i += 3) g[i] = (i % 2) ? -0.0f : 0.0f;
        }
        if (variant == 3) g = Tensor::Zeros({d});
        const SphericalCoordinates expected = HistoricalToSpherical(g);
        const SphericalCoordinates actual = ToSpherical(g);
        ASSERT_EQ(std::memcmp(&expected.magnitude, &actual.magnitude,
                              sizeof(double)),
                  0)
            << "d=" << d << " variant=" << variant;
        ASSERT_EQ(expected.angles.size(), actual.angles.size());
        ASSERT_EQ(std::memcmp(expected.angles.data(), actual.angles.data(),
                              expected.angles.size() * sizeof(double)),
                  0)
            << "d=" << d << " variant=" << variant;
      }
    }
  }
  SetSimdTier(entry_tier);
}

}  // namespace
}  // namespace geodp
