// Tests for base utilities: Rng, Status, Timer.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/status.h"
#include "base/timer.h"

namespace geodp {
namespace {

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntWithinBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.UniformInt(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, GaussianScaledMoments) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian(2.0, 3.0);
    sum += g;
    sum_sq += (g - 2.0) * (g - 2.0);
  }
  EXPECT_NEAR(sum / n, 2.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 9.0, 0.2);
}

TEST(RngTest, GaussianZeroStddevIsConstant) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(rng.Gaussian(4.0, 0.0), 4.0);
}

TEST(RngTest, LaplaceMoments) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0.0, sum_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Laplace(1.5);
    sum += x;
    sum_abs += std::fabs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  // E|X| = b for Laplace(b).
  EXPECT_NEAR(sum_abs / n, 1.5, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntZeroBoundReturnsZero) {
  // Sampling from an empty range (e.g. a zero-size dataset) must not
  // divide by zero; the defined result is 0.
  Rng rng(5);
  EXPECT_EQ(rng.UniformInt(0), 0u);
  // The generator still works afterwards.
  EXPECT_LT(rng.UniformInt(10), 10u);
}

TEST(RngTest, ExportImportStateResumesStreamExactly) {
  Rng original(77);
  for (int i = 0; i < 37; ++i) original.Next();
  // Draw one Gaussian so the Box-Muller spare sample is cached: the
  // snapshot must carry it, or the resumed stream drifts by one draw.
  original.Gaussian();
  const RngState snapshot = original.ExportState();

  Rng resumed(123456);  // unrelated seed — all state comes from the import
  resumed.ImportState(snapshot);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(resumed.Next(), original.Next());
  }
  EXPECT_EQ(resumed.Gaussian(), original.Gaussian());
  EXPECT_EQ(resumed.Uniform(), original.Uniform());
}

TEST(RngTest, ExportedStateCarriesGaussianCache) {
  Rng rng(9);
  rng.Gaussian();  // leaves a cached spare sample
  const RngState state = rng.ExportState();
  EXPECT_TRUE(state.has_cached_gaussian);

  Rng other(10);
  other.ImportState(state);
  EXPECT_EQ(other.Gaussian(), rng.Gaussian());
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad beta");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad beta");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad beta");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace geodp
