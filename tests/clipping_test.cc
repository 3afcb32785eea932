// Tests for per-sample clipping strategies, including the parameterized
// invariant that every strategy bounds the clipped norm by C.

#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "clip/clipping.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

TEST(FlatClipperTest, LargeGradientScaledToThreshold) {
  const FlatClipper clipper(1.0);
  const Tensor g = Tensor::Vector({3, 4});  // norm 5
  const Tensor clipped = ClipAndSum({g}, clipper);
  EXPECT_NEAR(clipped.L2Norm(), 1.0, 1e-6);
  // Direction preserved.
  EXPECT_NEAR(CosineSimilarity(g, clipped), 1.0, 1e-6);
}

TEST(FlatClipperTest, SmallGradientUnchanged) {
  const FlatClipper clipper(10.0);
  const Tensor g = Tensor::Vector({3, 4});
  EXPECT_TRUE(AllClose(ClipAndSum({g}, clipper), g));
}

TEST(FlatClipperTest, BoundaryGradientUnchanged) {
  const FlatClipper clipper(5.0);
  const Tensor g = Tensor::Vector({3, 4});  // norm exactly 5
  EXPECT_TRUE(AllClose(ClipAndSum({g}, clipper), g));
}

TEST(AutoSClipperTest, NormalizesTowardsThreshold) {
  const AutoSClipper clipper(1.0, 0.01);
  const Tensor g = Tensor::Vector({30, 40});  // norm 50
  const Tensor clipped = ClipAndSum({g}, clipper);
  EXPECT_NEAR(clipped.L2Norm(), 50.0 / 50.01, 1e-4);
  EXPECT_NEAR(CosineSimilarity(g, clipped), 1.0, 1e-6);
}

TEST(AutoSClipperTest, TinyGradientNotBlownUp) {
  const AutoSClipper clipper(1.0, 0.01);
  const Tensor g = Tensor::Vector({1e-4f, 0.0f});
  const Tensor clipped = ClipAndSum({g}, clipper);
  // Scale is C/(norm+gamma) ~ 1/0.0101 ~ 99, far below the 10^4 blow-up a
  // pure normalization would cause.
  EXPECT_LT(clipped.L2Norm(), 0.011);
}

TEST(PsacClipperTest, RadiusDecaysOverSteps) {
  PsacClipper clipper(1.0, /*r0=*/1.0, /*decay=*/0.9);
  EXPECT_DOUBLE_EQ(clipper.current_radius(), 1.0);
  clipper.OnStep(10);
  EXPECT_NEAR(clipper.current_radius(), std::pow(0.9, 10), 1e-12);
}

TEST(PsacClipperTest, DampsSmallGradientsLessThanAutoS) {
  // For moderate gradients PSAC's non-monotonic weight preserves more
  // signal than AUTO-S once the adaptive radius decays.
  PsacClipper psac(1.0, /*r0=*/1.0, /*decay=*/0.5);
  psac.OnStep(20);  // radius ~ 1e-6
  const AutoSClipper auto_s(1.0, 0.01);
  const Tensor g = Tensor::Vector({0.05f, 0.05f});
  EXPECT_GT(ClipAndSum({g}, psac).L2Norm(), ClipAndSum({g}, auto_s).L2Norm());
}

TEST(ClipAndSumTest, EmptyBatchYieldsEmptyTensorNotAbort) {
  // Empty per-sample batches are a normal occurrence under Poisson
  // subsampling (an empty lot); they used to hard-abort via GEODP_CHECK.
  const FlatClipper clipper(1.0);
  const Tensor sum = ClipAndSum({}, clipper);
  EXPECT_TRUE(sum.empty());
  EXPECT_EQ(sum.numel(), 0);
}

TEST(ClipAndSumTest, EmptyBatchMatchesAccumulateClippedNoOp) {
  // AccumulateClipped's early return leaves the accumulator untouched;
  // ClipAndSum's empty tensor is the from-scratch analog of that.
  const FlatClipper clipper(1.0);
  Tensor sum = Tensor::Vector({1.5, -2.5});
  AccumulateClipped({}, clipper, sum);
  EXPECT_EQ(sum[0], 1.5f);
  EXPECT_EQ(sum[1], -2.5f);
}

TEST(ClipperFactoryTest, IsKnownClipperNames) {
  EXPECT_TRUE(IsKnownClipper("flat"));
  EXPECT_TRUE(IsKnownClipper("AUTO-S"));
  EXPECT_TRUE(IsKnownClipper("PSAC"));
  EXPECT_FALSE(IsKnownClipper("median"));
  EXPECT_FALSE(IsKnownClipper(""));
  EXPECT_FALSE(IsKnownClipper("Flat"));  // names are case-sensitive
}

TEST(ClipperFactoryTest, KnownNames) {
  EXPECT_EQ(MakeClipper("flat", ClipThreshold(0.1))->name(), "flat");
  EXPECT_EQ(MakeClipper("AUTO-S", ClipThreshold(0.1))->name(), "AUTO-S");
  EXPECT_EQ(MakeClipper("PSAC", ClipThreshold(0.1))->name(), "PSAC");
}

// Parameterized invariant: a clipped norm is <= C for every strategy and any
// gradient magnitude.
class ClipBoundTest
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(ClipBoundTest, ClippedNormNeverExceedsThreshold) {
  const auto& [name, threshold] = GetParam();
  const auto clipper = MakeClipper(name, ClipThreshold(threshold));
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const double scale = std::pow(10.0, rng.Uniform(-4.0, 4.0));
    const Tensor g =
        Scale(Tensor::Randn({17}, rng), static_cast<float>(scale));
    EXPECT_LE(ClipAndSum({g}, *clipper).L2Norm(), threshold * (1.0 + 1e-5))
        << name << " C=" << threshold << " scale=" << scale;
  }
}

TEST_P(ClipBoundTest, ClippingPreservesDirection) {
  const auto& [name, threshold] = GetParam();
  const auto clipper = MakeClipper(name, ClipThreshold(threshold));
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor g = Tensor::Randn({9}, rng);
    EXPECT_NEAR(CosineSimilarity(g, ClipAndSum({g}, *clipper)), 1.0, 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllClippers, ClipBoundTest,
    ::testing::Combine(::testing::Values("flat", "AUTO-S", "PSAC"),
                       ::testing::Values(0.01, 0.1, 1.0, 10.0)));

}  // namespace
}  // namespace geodp
