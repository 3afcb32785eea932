// Property-based parameterized sweeps over the tensor substrate and the
// hyper-spherical conversions: algebraic identities across shapes, norm
// homogeneity, serialization round trips, and conversions under extreme
// magnitudes.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/spherical.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

class MatmulPropertyTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {
};

TEST_P(MatmulPropertyTest, MatchesNaiveTripleLoop) {
  const auto& [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 100 + k * 10 + n));
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  const Tensor c = Matmul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double expected = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        expected += static_cast<double>(a[i * k + kk]) *
                    static_cast<double>(b[kk * n + j]);
      }
      EXPECT_NEAR(c[i * n + j], expected, 1e-3)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(MatmulPropertyTest, TransposeIdentity) {
  // (A B)^T == B^T A^T.
  const auto& [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m + k + n));
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b = Tensor::Randn({k, n}, rng);
  EXPECT_TRUE(AllClose(Transpose(Matmul(a, b)),
                       Matmul(Transpose(b), Transpose(a)), 1e-4, 1e-4));
}

TEST_P(MatmulPropertyTest, DistributesOverAddition) {
  const auto& [m, k, n] = GetParam();
  Rng rng(static_cast<uint64_t>(m * 7 + k * 3 + n));
  const Tensor a = Tensor::Randn({m, k}, rng);
  const Tensor b1 = Tensor::Randn({k, n}, rng);
  const Tensor b2 = Tensor::Randn({k, n}, rng);
  EXPECT_TRUE(AllClose(Matmul(a, Add(b1, b2)),
                       Add(Matmul(a, b1), Matmul(a, b2)), 1e-4, 1e-4));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulPropertyTest,
    ::testing::Values(std::make_tuple<int64_t, int64_t, int64_t>(1, 1, 1),
                      std::make_tuple<int64_t, int64_t, int64_t>(2, 3, 4),
                      std::make_tuple<int64_t, int64_t, int64_t>(5, 1, 7),
                      std::make_tuple<int64_t, int64_t, int64_t>(8, 8, 8),
                      std::make_tuple<int64_t, int64_t, int64_t>(1, 16, 3),
                      std::make_tuple<int64_t, int64_t, int64_t>(13, 5, 2)));

class NormPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(NormPropertyTest, Homogeneity) {
  // ||c * x|| == |c| * ||x||.
  const int64_t n = GetParam();
  Rng rng(static_cast<uint64_t>(n));
  const Tensor x = Tensor::Randn({n}, rng);
  for (float c : {-2.5f, 0.0f, 0.5f, 7.0f}) {
    EXPECT_NEAR(Scale(x, c).L2Norm(),
                std::fabs(static_cast<double>(c)) * x.L2Norm(),
                1e-4 * (1.0 + x.L2Norm()));
  }
}

TEST_P(NormPropertyTest, TriangleInequality) {
  const int64_t n = GetParam();
  Rng rng(static_cast<uint64_t>(n) + 99);
  const Tensor x = Tensor::Randn({n}, rng);
  const Tensor y = Tensor::Randn({n}, rng);
  EXPECT_LE(Add(x, y).L2Norm(), x.L2Norm() + y.L2Norm() + 1e-5);
}

TEST_P(NormPropertyTest, CauchySchwarz) {
  const int64_t n = GetParam();
  Rng rng(static_cast<uint64_t>(n) + 7);
  const Tensor x = Tensor::Randn({n}, rng);
  const Tensor y = Tensor::Randn({n}, rng);
  EXPECT_LE(std::fabs(Dot(x, y)), x.L2Norm() * y.L2Norm() + 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NormPropertyTest,
                         ::testing::Values<int64_t>(1, 2, 5, 32, 257));

class SerializationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializationPropertyTest, RandomShapeRoundTrip) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  const int ndim = 1 + static_cast<int>(rng.UniformInt(4));
  std::vector<int64_t> shape;
  for (int i = 0; i < ndim; ++i) {
    shape.push_back(1 + static_cast<int64_t>(rng.UniformInt(6)));
  }
  const Tensor original = Tensor::Randn(shape, rng);
  ByteWriter out;
  WriteTensor(original, out);
  ByteReader in(out.bytes());
  StatusOr<Tensor> restored = ReadTensor(in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().shape(), original.shape());
  EXPECT_TRUE(AllClose(restored.value(), original, 0.0, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Trials, SerializationPropertyTest,
                         ::testing::Range(0, 8));

class SphericalScalePropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(SphericalScalePropertyTest, RoundTripAtExtremeMagnitudes) {
  const double scale = GetParam();
  Rng rng(404);
  Tensor g = Tensor::Randn({24}, rng);
  g.ScaleInPlace(static_cast<float>(scale / g.L2Norm()));
  const Tensor back = ToCartesian(ToSpherical(g));
  EXPECT_LT(MaxAbsDiff(g, back), 1e-4 * scale + 1e-7) << "scale=" << scale;
  EXPECT_NEAR(ToSpherical(g).magnitude, scale, 1e-4 * scale + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, SphericalScalePropertyTest,
                         ::testing::Values(1e-6, 1e-3, 1.0, 1e3, 1e6));

TEST(SphericalEdgeCaseTest, SingleNonZeroTailComponent) {
  // Vector whose only mass is in the last coordinate exercises the
  // atan2(y, 0) branches.
  Tensor g({5});
  g[4] = -3.0f;
  const Tensor back = ToCartesian(ToSpherical(g));
  EXPECT_LT(MaxAbsDiff(g, back), 1e-5);
}

TEST(SphericalEdgeCaseTest, NearlyParallelVectorsHaveTinyAngleDistance) {
  Rng rng(505);
  const Tensor g = Tensor::Randn({16}, rng);
  Tensor g2 = g;
  g2[3] += 1e-4f;
  const double distance = AngleSquaredDistance(
      ToSpherical(g).angles, ToSpherical(g2).angles);
  EXPECT_LT(distance, 1e-4);
}

TEST(ReshapePropertyTest, ChainsPreserveFlatOrder) {
  Rng rng(606);
  const Tensor t = Tensor::Randn({2, 3, 4}, rng);
  const Tensor r = t.Reshape({4, 6}).Reshape({24}).Reshape({3, -1});
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], r[i]);
}

}  // namespace
}  // namespace geodp
