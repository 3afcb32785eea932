// Tests for the tensor library and its free-function ops.

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

TEST(TensorTest, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
  EXPECT_TRUE(t.empty());
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(At(t, {0, 0}), 1.0f);
  EXPECT_EQ(At(t, {0, 2}), 3.0f);
  EXPECT_EQ(At(t, {1, 0}), 4.0f);
  EXPECT_EQ(At(t, {1, 2}), 6.0f);
}

TEST(TensorTest, VectorFactory) {
  Tensor v = Tensor::Vector({1.0f, -2.0f});
  EXPECT_EQ(v.ndim(), 1);
  EXPECT_EQ(v.dim(0), 2);
  EXPECT_EQ(v[1], -2.0f);
}

TEST(TensorTest, FullFillsValue) {
  Tensor t = Full({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.dim(0), 3);
  EXPECT_EQ(At(r, {2, 1}), 6.0f);
}

TEST(TensorTest, ReshapeInfersExtent) {
  Tensor t({4, 6});
  Tensor r = t.Reshape({2, -1});
  EXPECT_EQ(r.dim(1), 12);
  Tensor r2 = t.Reshape({-1});
  EXPECT_EQ(r2.dim(0), 24);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a = Tensor::Vector({1, 2});
  Tensor b = a;
  b[0] = 9.0f;
  EXPECT_EQ(a[0], 1.0f);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a = Tensor::Vector({1, 2, 3});
  Tensor b = Tensor::Vector({4, 5, 6});
  a.AddInPlace(b);
  EXPECT_EQ(a[2], 9.0f);
  a.SubInPlace(b);
  EXPECT_EQ(a[2], 3.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a[0], 2.0f);
  a.AxpyInPlace(0.5f, b);
  EXPECT_EQ(a[1], 4.0f + 2.5f);
}

TEST(TensorTest, L2NormAndSum) {
  Tensor t = Tensor::Vector({3, 4});
  EXPECT_DOUBLE_EQ(t.L2Norm(), 5.0);
  EXPECT_DOUBLE_EQ(Sum(t), 7.0);
}

TEST(TensorTest, RandnUsesRng) {
  Rng rng(1);
  Tensor t = Tensor::Randn({1000}, rng, 2.0f);
  double sum_sq = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i)
    sum_sq += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  EXPECT_NEAR(sum_sq / 1000.0, 4.0, 0.6);
}

TEST(TensorTest, RandUniformRange) {
  Rng rng(2);
  Tensor t = Tensor::RandUniform({1000}, rng, -1.0f, 1.0f);
  for (int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_GE(t[i], -1.0f);
    EXPECT_LT(t[i], 1.0f);
  }
}

TEST(TensorTest, SameShape) {
  EXPECT_TRUE(SameShape(Tensor({2, 3}), Tensor({2, 3})));
  EXPECT_FALSE(SameShape(Tensor({2, 3}), Tensor({3, 2})));
}

TEST(TensorOpsTest, AddSubMulScale) {
  Tensor a = Tensor::Vector({1, 2});
  Tensor b = Tensor::Vector({3, 5});
  EXPECT_EQ(Add(a, b)[1], 7.0f);
  EXPECT_EQ(Sub(b, a)[0], 2.0f);
  EXPECT_EQ(Mul(a, b)[1], 10.0f);
  EXPECT_EQ(Scale(a, 3.0f)[0], 3.0f);
}

TEST(TensorOpsTest, DotProduct) {
  Tensor a = Tensor::Vector({1, 2, 3});
  Tensor b = Tensor::Vector({4, 5, 6});
  EXPECT_DOUBLE_EQ(Dot(a, b), 32.0);
}

TEST(TensorOpsTest, MatmulKnownValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = Matmul(a, b);
  EXPECT_EQ(At(c, {0, 0}), 58.0f);
  EXPECT_EQ(At(c, {0, 1}), 64.0f);
  EXPECT_EQ(At(c, {1, 0}), 139.0f);
  EXPECT_EQ(At(c, {1, 1}), 154.0f);
}

TEST(TensorOpsTest, MatmulIdentity) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, rng);
  Tensor eye({4, 4});
  for (int64_t i = 0; i < 4; ++i) At(eye, {i, i}) = 1.0f;
  EXPECT_TRUE(AllClose(Matmul(a, eye), a));
  EXPECT_TRUE(AllClose(Matmul(eye, a), a));
}

TEST(TensorOpsTest, TransposeTwiceIsIdentity) {
  Rng rng(4);
  Tensor a = Tensor::Randn({3, 5}, rng);
  EXPECT_TRUE(AllClose(Transpose(Transpose(a)), a));
}

TEST(TensorOpsTest, TransposeMatchesMatmulIdentity) {
  Rng rng(5);
  Tensor a = Tensor::Randn({3, 4}, rng);
  Tensor at = Transpose(a);
  EXPECT_EQ(at.dim(0), 4);
  EXPECT_EQ(at.dim(1), 3);
  EXPECT_EQ(At(at, {2, 1}), At(a, {1, 2}));
}

TEST(TensorOpsTest, TransposeMapsEveryElementExactly) {
  // Edge shapes, shapes either side of the copy's cache-block size, the
  // wide MLP's first weight, the CNN's classifier weight and conv2's
  // unfolded weight both ways. Each element holds its own flat index, so
  // any wrong index map shows up as a mismatch.
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1},  {1, 77},  {77, 1},  {15, 17},  {16, 16},  {17, 15},
      {31, 33}, {32, 32}, {33, 31}, {63, 65}, {64, 64}, {65, 129},
      {768, 196}, {10, 300}, {12, 54}, {54, 12}};
  const SimdTier entry_tier = ActiveSimdTier();
  for (const auto& [m, n] : shapes) {
    SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(n));
    Tensor a({m, n});
    for (int64_t i = 0; i < a.numel(); ++i) a[i] = static_cast<float>(i);
    for (const SimdTier tier : AvailableSimdTiers()) {
      SetSimdTier(tier);
      SCOPED_TRACE(SimdTierName(tier));
      const Tensor out = Transpose(a);
      ASSERT_EQ(out.dim(0), n);
      ASSERT_EQ(out.dim(1), m);
      int64_t mismatches = 0;
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          if (out[j * m + i] != a[i * n + j]) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
  SetSimdTier(entry_tier);
}

TEST(TensorOpsTest, ArgMaxRows) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = ArgMaxRows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(TensorOpsTest, MeanAndMaxAbsDiff) {
  Tensor a = Tensor::Vector({1, 2, 3});
  Tensor b = Tensor::Vector({1, 2, 7});
  EXPECT_DOUBLE_EQ(Mean(a), 2.0);
  EXPECT_DOUBLE_EQ(MaxAbsDiff(a, b), 4.0);
}

TEST(TensorOpsTest, MaxAbsDiffCountsANanAgainstANumberAsInfinite) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Equal values, same-signed infinities and NaN against NaN count 0.
  EXPECT_EQ(MaxAbsDiff(Tensor::Vector({1.0f, inf, -inf, nan, 0.0f}),
                       Tensor::Vector({1.0f, inf, -inf, -nan, -0.0f})),
            0.0);
  // A NaN on one side is +inf wherever it sits, before or after a finite
  // difference; so are opposite infinities.
  EXPECT_EQ(MaxAbsDiff(Tensor::Vector({nan, 1.0f}),
                       Tensor::Vector({2.0f, 3.0f})),
            inf);
  EXPECT_EQ(MaxAbsDiff(Tensor::Vector({1.0f, 2.0f}),
                       Tensor::Vector({3.0f, nan})),
            inf);
  EXPECT_EQ(MaxAbsDiff(Tensor::Vector({inf}), Tensor::Vector({-inf})), inf);
  EXPECT_EQ(MaxAbsDiff(Tensor::Vector({inf}), Tensor::Vector({1.0f})), inf);
}

TEST(TensorOpsTest, AllCloseTolerances) {
  Tensor a = Tensor::Vector({1.0f});
  Tensor b = Tensor::Vector({1.0000001f});
  EXPECT_TRUE(AllClose(a, b));
  Tensor c = Tensor::Vector({1.1f});
  EXPECT_FALSE(AllClose(a, c));
  EXPECT_FALSE(AllClose(a, Tensor::Vector({1.0f, 1.0f})));  // shape mismatch
}

TEST(TensorOpsTest, CosineSimilarity) {
  Tensor a = Tensor::Vector({1, 0});
  Tensor b = Tensor::Vector({0, 1});
  Tensor c = Tensor::Vector({2, 0});
  EXPECT_NEAR(CosineSimilarity(a, b), 0.0, 1e-9);
  EXPECT_NEAR(CosineSimilarity(a, c), 1.0, 1e-6);
  EXPECT_NEAR(CosineSimilarity(a, Scale(a, -1.0f)), -1.0, 1e-6);
  EXPECT_EQ(CosineSimilarity(a, Tensor::Vector({0, 0})), 0.0);
}

}  // namespace
}  // namespace geodp
