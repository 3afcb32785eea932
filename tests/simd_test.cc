// Kernel-level coverage for the base/simd dispatch layer.
//
// Three contracts are pinned here:
//   1. The scalar tier reproduces plain element loops bit-for-bit — it IS
//      the historical numeric behavior of the library.
//   2. Every other available tier agrees with the scalar tier exactly for
//      sqrt and within tight tolerances for FMA / polynomial
//      transcendental kernels; the AVX2 matmul is pinned bit for bit to
//      the per-element FMA chain.
//   3. Within any tier, results are bit-identical at 1 and 8 threads
//      (the parallel_determinism contract, re-run per tier).
//
// Edge shapes (n = 0, 1, odd tails, non-multiples of the vector width) are
// exercised on every kernel so tail handling can never regress silently.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/simd/kernels.h"
#include "base/thread_pool.h"
#include "clip/clipping.h"
#include "core/perturbation.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "nn/parameter.h"
#include "optim/geodp_sgd.h"
#include "optim/trainer.h"
#include "support/conv_reference.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

// Sizes straddling every alignment case of the 8-wide float / 4-wide double
// kernels: empty, sub-width, exact widths, width+1, and a large block.
const int64_t kEdgeSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100};

std::vector<float> RandnF32(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

std::vector<double> RandnF64(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<size_t>(n));
  for (double& x : v) x = rng.Gaussian(0.0, 1.0);
  return v;
}

// MaxAbsDiff's rule: equal elements (same-signed infinities included) and
// NaN against NaN count 0, NaN against a non-NaN counts +inf.
template <typename T>
double MaxAbsDiffSpan(const std::vector<T>& a, const std::vector<T>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double x = static_cast<double>(a[i]);
    const double y = static_cast<double>(b[i]);
    if (x == y || (std::isnan(x) && std::isnan(y))) continue;
    worst = std::isnan(x) || std::isnan(y)
                ? std::numeric_limits<double>::infinity()
                : std::max(worst, std::abs(x - y));
  }
  return worst;
}

TEST(MaxAbsDiffSpanTest, NanAgainstANumberIsInfiniteAndAgainstNanIsZero) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(MaxAbsDiffSpan<double>({1.0, inf, -inf, nan},
                                   {1.0, inf, -inf, -nan}),
            0.0);
  EXPECT_EQ(MaxAbsDiffSpan<double>({nan, 1.0}, {2.0, 3.0}), inf);
  EXPECT_EQ(MaxAbsDiffSpan<double>({1.0, 2.0}, {3.0, nan}), inf);
  EXPECT_EQ(MaxAbsDiffSpan<double>({1.0, 2.0}, {1.5, 4.0}), 2.0);
}

// Restores the entry tier after each test, so a failing ASSERT can never
// leak a forced tier into later tests.
class SimdTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = ActiveSimdTier(); }
  void TearDown() override { SetSimdTier(entry_tier_); }

  SimdTier entry_tier_ = SimdTier::kScalar;
};

using SimdDispatchTest = SimdTest;
using SimdKernelTest = SimdTest;
using SimdTierDeterminismTest = SimdTest;

TEST_F(SimdDispatchTest, TierNamesAreStable) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
}

TEST_F(SimdDispatchTest, ScalarTierIsAlwaysAvailable) {
  EXPECT_TRUE(SimdTierAvailable(SimdTier::kScalar));
  const std::vector<SimdTier> tiers = AvailableSimdTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), SimdTier::kScalar);
  // DetectSimdTier picks the best available tier, which is listed last.
  EXPECT_EQ(DetectSimdTier(), tiers.back());
  EXPECT_TRUE(SimdTierAvailable(DetectSimdTier()));
}

TEST_F(SimdDispatchTest, SetFromStringParsesEveryTierName) {
  ASSERT_TRUE(SetSimdTierFromString("scalar").ok());
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);

  ASSERT_TRUE(SetSimdTierFromString("auto").ok());
  EXPECT_EQ(ActiveSimdTier(), DetectSimdTier());

  if (SimdTierAvailable(SimdTier::kAvx2)) {
    ASSERT_TRUE(SetSimdTierFromString("avx2").ok());
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kAvx2);
  } else {
    // On hosts without AVX2 the name parses but the tier is rejected.
    EXPECT_FALSE(SetSimdTierFromString("avx2").ok());
  }
}

TEST_F(SimdDispatchTest, SetFromStringRejectsUnknownNamesWithoutSideEffects) {
  ASSERT_TRUE(SetSimdTierFromString("scalar").ok());
  const Status status = SetSimdTierFromString("sse9");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sse9"), std::string::npos);
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
}

// Runs `fn` once per available tier with that tier forced active.
template <typename Fn>
void ForEachTier(Fn fn) {
  for (SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(SimdTierName(tier));
    fn(tier);
  }
}

TEST_F(SimdKernelTest, AddMatchesReferenceBitExactlyOnEveryTier) {
  for (int64_t n : kEdgeSizes) {
    const std::vector<float> x = RandnF32(n, 1000 + static_cast<uint64_t>(n));
    const std::vector<float> y0 = RandnF32(n, 2000 + static_cast<uint64_t>(n));
    std::vector<float> expected = y0;
    for (int64_t i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] += x[static_cast<size_t>(i)];
    }
    ForEachTier([&](SimdTier) {
      std::vector<float> y = y0;
      simd::Add(y.data(), x.data(), n);
      // Lane-wise float add has a single rounding on every tier.
      EXPECT_EQ(MaxAbsDiffSpan(y, expected), 0.0) << "n=" << n;
    });
  }
}

TEST_F(SimdKernelTest, ScaleAndClipScaleAssignAreBitExactOnEveryTier) {
  for (int64_t n : kEdgeSizes) {
    const std::vector<float> src = RandnF32(n, 3000 + static_cast<uint64_t>(n));
    const float scale = 0.3710937f;
    std::vector<float> expected(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] = src[static_cast<size_t>(i)] * scale;
    }
    ForEachTier([&](SimdTier) {
      std::vector<float> scaled = src;
      simd::Scale(scaled.data(), scale, n);
      EXPECT_EQ(MaxAbsDiffSpan(scaled, expected), 0.0) << "n=" << n;

      std::vector<float> assigned(static_cast<size_t>(n), -7.0f);
      simd::ClipScaleAssign(assigned.data(), src.data(), scale, n);
      EXPECT_EQ(MaxAbsDiffSpan(assigned, expected), 0.0) << "n=" << n;
    });
  }
}

TEST_F(SimdKernelTest, AxpyScalarTierIsBitExactAndAvx2IsWithinOneFmaRounding) {
  for (int64_t n : kEdgeSizes) {
    const std::vector<float> x = RandnF32(n, 4000 + static_cast<uint64_t>(n));
    const std::vector<float> y0 = RandnF32(n, 5000 + static_cast<uint64_t>(n));
    const float alpha = -1.6254883f;
    std::vector<float> expected = y0;
    for (int64_t i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] +=
          alpha * x[static_cast<size_t>(i)];
    }
    ForEachTier([&](SimdTier tier) {
      std::vector<float> y = y0;
      simd::Axpy(y.data(), x.data(), alpha, n);
      std::vector<float> acc = y0;
      simd::ClipAxpy(acc.data(), x.data(), alpha, n);
      // ClipAxpy is the same fused kernel under its audited R2 name.
      EXPECT_EQ(MaxAbsDiffSpan(y, acc), 0.0) << "n=" << n;
      if (tier == SimdTier::kScalar) {
        EXPECT_EQ(MaxAbsDiffSpan(y, expected), 0.0) << "n=" << n;
      } else {
        // FMA contracts mul+add into one rounding: at most 1 ulp apart.
        EXPECT_LE(MaxAbsDiffSpan(y, expected), 1e-5) << "n=" << n;
      }
    });
  }
}

TEST_F(SimdKernelTest, SumSquaresAndDotMatchDoubleReference) {
  for (int64_t n : kEdgeSizes) {
    const std::vector<float> a = RandnF32(n, 6000 + static_cast<uint64_t>(n));
    const std::vector<float> b = RandnF32(n, 7000 + static_cast<uint64_t>(n));
    double ref_ss = 0.0, ref_dot = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      const double ai = a[static_cast<size_t>(i)];
      const double bi = b[static_cast<size_t>(i)];
      ref_ss += ai * ai;
      ref_dot += ai * bi;
    }
    ForEachTier([&](SimdTier tier) {
      const double ss = simd::SumSquares(a.data(), n);
      const double dot = simd::Dot(a.data(), b.data(), n);
      if (tier == SimdTier::kScalar) {
        EXPECT_EQ(ss, ref_ss) << "n=" << n;
        EXPECT_EQ(dot, ref_dot) << "n=" << n;
      } else {
        // 4 double lanes re-associate the sum; error stays O(n * eps).
        EXPECT_NEAR(ss, ref_ss, 1e-12 * (1.0 + std::abs(ref_ss))) << "n=" << n;
        EXPECT_NEAR(dot, ref_dot, 1e-12 * (1.0 + std::abs(ref_dot)))
            << "n=" << n;
      }
    });
  }
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST_F(SimdKernelTest, SumSquares4IsFourSumSquaresCallsBitForBit) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // n mod 4 takes every value, below and above one vector. Array 1 holds
  // specials (a NaN, an infinity, -0, a denormal, a square that
  // overflows float but not double), array 3 an infinity only, so the
  // four chains end finite, NaN, finite and infinite.
  for (int64_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 33, 3730}) {
    std::vector<std::vector<float>> x;
    for (uint64_t s = 0; s < 4; ++s) {
      x.push_back(RandnF32(n, 11000 + 10 * s + static_cast<uint64_t>(n)));
    }
    const float specials[] = {nan, kInf, -0.0f, 1e-40f, 3e38f};
    for (int64_t i = 0; i < n; ++i) {
      if (i % 3 == 1) x[1][static_cast<size_t>(i)] = specials[i % 5];
    }
    if (n > 0) x[3][static_cast<size_t>(n - 1)] = -kInf;
    ForEachTier([&](SimdTier) {
      const std::array<double, 4> got =
          simd::SumSquares4({x[0].data(), x[1].data(), x[2].data(),
                             x[3].data()},
                            n);
      for (size_t s = 0; s < 4; ++s) {
        const double want = simd::SumSquares(x[s].data(), n);
        EXPECT_TRUE(SameBits(got[s], want))
            << "n=" << n << " array " << s << ": " << got[s] << " vs "
            << want;
      }
    });
  }
}

TEST_F(SimdKernelTest, CopyRunsCopiesExactlyTheRunsOnEveryTier) {
  // Run lengths around both vector widths; destination rows longer than
  // the runs, so a vector that strays past a run's end overwrites the
  // sentinel after it. Bits are copied as they are: -0 and a NaN payload.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t n = 0; n <= 17; ++n) {
    for (int64_t runs : {0, 1, 3}) {
      const int64_t src_stride = n + 2, dst_stride = n + 5;
      std::vector<float> src =
          RandnF32(3 * src_stride, 12000 + static_cast<uint64_t>(n));
      if (n > 1) src[1] = -0.0f;
      if (n > 2) src[static_cast<size_t>(src_stride + 2)] = -nan;
      std::vector<float> want(static_cast<size_t>(runs * dst_stride + 3),
                              -7.0f);
      for (int64_t r = 0; r < runs; ++r) {
        for (int64_t j = 0; j < n; ++j) {
          want[static_cast<size_t>(1 + r * dst_stride + j)] =
              src[static_cast<size_t>(r * src_stride + j)];
        }
      }
      ForEachTier([&](SimdTier) {
        std::vector<float> got(want.size(), -7.0f);
        simd::CopyRuns(src.data(), src_stride, got.data() + 1, dst_stride,
                       runs, n);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0)
            << "n=" << n << " runs=" << runs;
      });
    }
  }
}

TEST_F(SimdKernelTest, Col2ImMatchesTheDefinitionOnEveryTier) {
  // Image widths 1-17 cover one partial 8-column block, a full one and a
  // full one plus a partial one; paddings from 0 past the kernel's reach
  // shift every contribution left and right of its output column. The
  // image starts as a partial sum holding -0, which a lane outside its
  // contribution's range must keep. x86's default NaN (the one inf + -inf
  // makes) is the only NaN, so every NaN sum has the same bits whichever
  // operand comes first.
  const float nan = std::bit_cast<float>(0xffc00000u);
  const float inf = std::numeric_limits<float>::infinity();
  // k = 9 is past the AVX2 tier's register masks and takes the scalar
  // loop there.
  for (const int64_t k : {1, 2, 3, 5, 9}) {
    for (const int64_t padding : {int64_t{0}, int64_t{1}, k}) {
      for (int64_t width = 1; width <= 17; ++width) {
        const int64_t channels = 2, height = 4;
        const int64_t out_h = height + 2 * padding - k + 1;
        const int64_t out_w = width + 2 * padding - k + 1;
        if (out_h <= 0 || out_w <= 0) continue;
        const int64_t spatial = out_h * out_w;
        std::vector<float> columns = RandnF32(
            channels * k * k * spatial, 15000 + static_cast<uint64_t>(width));
        columns[0] = inf;
        columns[columns.size() / 2] = -inf;
        columns.back() = nan;
        std::vector<float> start = RandnF32(
            channels * height * width, 16000 + static_cast<uint64_t>(k));
        for (size_t i = 0; i < start.size(); i += 3) start[i] = -0.0f;
        std::vector<float> want = start;
        for (int64_t c = 0; c < channels; ++c) {
          for (int64_t kh = 0; kh < k; ++kh) {
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t row = (c * k + kh) * k + kw;
              for (int64_t oh = 0; oh < out_h; ++oh) {
                for (int64_t ow = 0; ow < out_w; ++ow) {
                  const int64_t ih = oh + kh - padding;
                  const int64_t iw = ow + kw - padding;
                  if (ih < 0 || ih >= height || iw < 0 || iw >= width) {
                    continue;
                  }
                  want[static_cast<size_t>((c * height + ih) * width + iw)] +=
                      columns[static_cast<size_t>(row * spatial +
                                                  oh * out_w + ow)];
                }
              }
            }
          }
        }
        // Folding -0 columns onto a -0 image adds only -0, so every
        // element must stay -0, including those a lane outside its range
        // passes over.
        const std::vector<float> neg_zero_columns(columns.size(), -0.0f);
        const std::vector<float> neg_zero_image(start.size(), -0.0f);
        ForEachTier([&](SimdTier) {
          std::vector<float> got = start;
          simd::Col2Im(columns.data(), channels, height, width, k, padding,
                       got.data());
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                want.size() * sizeof(float)),
                    0)
              << "k=" << k << " padding=" << padding << " width=" << width;
          got = neg_zero_image;
          simd::Col2Im(neg_zero_columns.data(), channels, height, width, k,
                       padding, got.data());
          EXPECT_EQ(std::memcmp(got.data(), neg_zero_image.data(),
                                got.size() * sizeof(float)),
                    0)
              << "-0 k=" << k << " padding=" << padding << " width=" << width;
        });
      }
    }
  }
}

TEST_F(SimdKernelTest, TransposeTileWritesOnlyItsTileOnEveryTier) {
  // Tiles below, at and past the 8x8 register block, inside larger
  // strided matrices whose other elements must keep their sentinel.
  const std::pair<int64_t, int64_t> tiles[] = {
      {1, 1}, {3, 9}, {9, 3}, {7, 7}, {8, 8}, {9, 8}, {8, 9},
      {10, 32}, {12, 22}, {31, 17}, {32, 32}};
  for (const auto& [rows, cols] : tiles) {
    const int64_t src_stride = cols + 3, dst_stride = rows + 5;
    std::vector<float> src(static_cast<size_t>(rows * src_stride));
    for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<float>(i);
    std::vector<float> want(static_cast<size_t>(cols * dst_stride), -1.0f);
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        want[static_cast<size_t>(j * dst_stride + i)] =
            src[static_cast<size_t>(i * src_stride + j)];
      }
    }
    ForEachTier([&](SimdTier) {
      std::vector<float> got(want.size(), -1.0f);
      simd::TransposeTile(src.data(), src_stride, got.data(), dst_stride,
                          rows, cols);
      EXPECT_EQ(MaxAbsDiffSpan(got, want), 0.0)
          << rows << "x" << cols;
    });
  }
}

TEST_F(SimdKernelTest, MatmulRowBlockMatchesNaiveReferenceAtOddShapes) {
  struct Shape {
    int64_t m, k, n;
  };
  // Odd everything: k below / straddling the tile, n not a multiple of 8.
  const Shape shapes[] = {{1, 1, 1},  {3, 7, 5},   {4, 37, 29},
                          {5, 64, 9}, {2, 65, 17}, {7, 130, 3}};
  for (const Shape& s : shapes) {
    const std::vector<float> a =
        RandnF32(s.m * s.k, 8000 + static_cast<uint64_t>(s.k));
    const std::vector<float> b =
        RandnF32(s.k * s.n, 9000 + static_cast<uint64_t>(s.n));
    // Reference accumulates in k-ascending order, like the kernels.
    std::vector<float> expected(static_cast<size_t>(s.m * s.n), 0.0f);
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t kk = 0; kk < s.k; ++kk) {
        const float aik = a[static_cast<size_t>(i * s.k + kk)];
        for (int64_t j = 0; j < s.n; ++j) {
          expected[static_cast<size_t>(i * s.n + j)] +=
              aik * b[static_cast<size_t>(kk * s.n + j)];
        }
      }
    }
    ForEachTier([&](SimdTier tier) {
      std::vector<float> out(static_cast<size_t>(s.m * s.n), 0.0f);
      // Two row blocks, to cover row_begin > 0.
      const int64_t split = s.m / 2;
      simd::MatmulRowBlock(a.data(), b.data(), out.data(), 0, split, s.k, s.n);
      simd::MatmulRowBlock(a.data(), b.data(), out.data(), split, s.m, s.k,
                           s.n);
      if (tier == SimdTier::kScalar) {
        // Same k order, but the tile structure only re-orders across
        // tiles; within one tile (k <= 64) it is the plain loop.
        if (s.k <= 64) {
          EXPECT_EQ(MaxAbsDiffSpan(out, expected), 0.0)
              << s.m << "x" << s.k << "x" << s.n;
        }
      }
      EXPECT_LE(MaxAbsDiffSpan(out, expected), 1e-4)
          << s.m << "x" << s.k << "x" << s.n;
    });
  }
}

// Every matmul tier computes each output element as one chain over k in
// increasing order that skips zero entries of a (so a zero a times a NaN or
// infinite b contributes nothing). The scalar tier rounds each product and
// sum separately; the AVX2 tier fuses them, body and tail columns alike.
std::vector<float> MatmulChain(const std::vector<float>& a,
                               const std::vector<float>& b, int64_t m,
                               int64_t k, int64_t n, bool fused) {
  std::vector<float> out(static_cast<size_t>(m * n), 0.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = a[static_cast<size_t>(i * k + kk)];
        if (aik == 0.0f) continue;
        const float bkj = b[static_cast<size_t>(kk * n + j)];
        acc = fused ? std::fma(aik, bkj, acc) : acc + aik * bkj;
      }
      out[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return out;
}

// Index of the first element whose bits differ, or -1.
int64_t FirstBitMismatch(const std::vector<float>& got,
                         const std::vector<float>& want) {
  if (got.size() != want.size()) return 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

// Runs a [m, k] x [k, n] product through the kernel in two row blocks and
// through Matmul at 1 and 4 threads, and checks each against the chain.
void ExpectMatmulMatchesChain(const std::vector<float>& a,
                              const std::vector<float>& b, int64_t m,
                              int64_t k, int64_t n) {
  const int entry_threads = GetGlobalThreadCount();
  ForEachTier([&](SimdTier tier) {
    const std::vector<float> want =
        MatmulChain(a, b, m, k, n, /*fused=*/tier != SimdTier::kScalar);
    // The output starts as NaN: the kernel must never read what it
    // overwrites.
    std::vector<float> out(static_cast<size_t>(m * n),
                           std::numeric_limits<float>::quiet_NaN());
    const int64_t split = m / 2;
    simd::MatmulRowBlock(a.data(), b.data(), out.data(), 0, split, k, n);
    simd::MatmulRowBlock(a.data(), b.data(), out.data(), split, m, k, n);
    EXPECT_EQ(FirstBitMismatch(out, want), -1)
        << m << "x" << k << "x" << n << " kernel";
    const Tensor ta = Tensor::FromVector({m, k}, a);
    const Tensor tb = Tensor::FromVector({k, n}, b);
    for (const int threads : {1, 4}) {
      SetGlobalThreadCount(threads);
      const Tensor product = Matmul(ta, tb);
      const std::vector<float> got(product.data(),
                                   product.data() + product.numel());
      EXPECT_EQ(FirstBitMismatch(got, want), -1)
          << m << "x" << k << "x" << n << " Matmul, threads " << threads;
    }
  });
  SetGlobalThreadCount(entry_threads);
}

TEST_F(SimdKernelTest, MatmulKeepsEachElementsKOrderedChainForNarrowOutputs) {
  struct Shape {
    int64_t m, k;
  };
  // The CNN's and LR's narrow products (conv2 forward 12x54, Linear
  // forward 1x300, conv1 weight gradient 6x196), one row, and remainders
  // of four-row blocks around the k tile.
  const Shape shapes[] = {{12, 54}, {1, 300}, {6, 196}, {1, 1},
                          {5, 65},  {7, 3},   {3, 128}};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const Shape& s : shapes) {
    for (int64_t n = 1; n <= 66; ++n) {
      std::vector<float> a =
          RandnF32(s.m * s.k, 11000 + static_cast<uint64_t>(s.k));
      std::vector<float> b =
          RandnF32(s.k * n, 12000 + static_cast<uint64_t>(n));
      // About a third of a is zero, as after ReLU or a max-pool backward.
      for (size_t i = 0; i < a.size(); i += 3) a[i] = (i % 2) ? -0.0f : 0.0f;
      // Every fifth column of a is all zeros, and the matching row of b
      // holds NaN and infinities that must contribute nothing.
      for (int64_t kk = 1; kk < s.k; kk += 5) {
        for (int64_t i = 0; i < s.m; ++i) {
          a[static_cast<size_t>(i * s.k + kk)] = 0.0f;
        }
        for (int64_t j = 0; j < n; ++j) {
          const float special[] = {nan, inf, -inf, -nan};
          b[static_cast<size_t>(kk * n + j)] = special[(kk + j) % 4];
        }
      }
      ExpectMatmulMatchesChain(a, b, s.m, s.k, n);
    }
  }
}

TEST_F(SimdKernelTest, MatmulStartsEachChainAtItsFirstNonzeroA) {
  // Row 0 of a is all zero, row 1 zero through the first k tile, row 2
  // only in its first entry; each zero sits over NaN and infinities in b.
  // Row 3's only nonzero is a negative a[3, 1] over a row of b that is
  // +0 and -0: its products are exactly -0 and +0, and the chain onto +0
  // makes both +0. Narrow and wide outputs, one and several k tiles.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const int64_t k : {2, 5, 64, 130}) {
    for (const int64_t n : {1, 8, 63, 64, 65, 66}) {
      const int64_t m = 4;
      std::vector<float> a =
          RandnF32(m * k, 17000 + static_cast<uint64_t>(k));
      std::vector<float> b =
          RandnF32(k * n, 18000 + static_cast<uint64_t>(n));
      for (int64_t kk = 0; kk < k; ++kk) {
        const bool zero[] = {true, kk < 64, kk == 0, kk != 1};
        for (int64_t i = 0; i < m; ++i) {
          if (!zero[i]) continue;
          a[static_cast<size_t>(i * k + kk)] = kk % 2 ? -0.0f : 0.0f;
        }
        if (kk < 64) b[static_cast<size_t>(kk * n)] = kk % 2 ? nan : inf;
      }
      a[static_cast<size_t>(3 * k + 1)] = -1.5f;
      for (int64_t j = 0; j < n; ++j) {
        b[static_cast<size_t>(n + j)] = j % 2 ? -0.0f : 0.0f;
      }
      ExpectMatmulMatchesChain(a, b, m, k, n);
    }
  }
  // With k == 0 the product is the empty sum, +0, on both paths.
  ForEachTier([&](SimdTier) {
    for (const int64_t n : {5, 70}) {
      std::vector<float> out(static_cast<size_t>(2 * n),
                             std::numeric_limits<float>::quiet_NaN());
      simd::MatmulRowBlock(nullptr, nullptr, out.data(), 0, 2, 0, n);
      EXPECT_EQ(FirstBitMismatch(out, std::vector<float>(out.size(), 0.0f)),
                -1)
          << "n=" << n;
    }
  });
}

TEST_F(SimdKernelTest, MatmulZeroEntriesKeepAnUnderflowedNegativeZero) {
  // Each row's first product underflows to -0 (fused, the accumulator
  // becomes -0; unfused, +0 + -0 is +0). The zero entries after it sit over
  // NaN, infinities and positive b, where 0 * b would turn -0 into +0 or
  // NaN: the accumulator must keep its bits to the end of the chain.
  const int64_t m = 5, k = 6;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float a_row[] = {1e-30f, 0.0f, -0.0f, 0.0f, 0.0f, -0.0f};
  const float b_col[] = {-1e-30f, nan, inf, 3.0f, -inf, 2.0f};
  for (int64_t n = 1; n <= 66; ++n) {
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    for (int64_t i = 0; i < m * k; ++i) {
      a[static_cast<size_t>(i)] = a_row[i % k];
    }
    for (int64_t i = 0; i < k * n; ++i) {
      b[static_cast<size_t>(i)] = b_col[i / n];
    }
    ExpectMatmulMatchesChain(a, b, m, k, n);
  }
}

TEST_F(SimdKernelTest, SqrtArrayIsCorrectlyRoundedOnEveryTier) {
  for (int64_t n : kEdgeSizes) {
    std::vector<double> x = RandnF64(n, 10000 + static_cast<uint64_t>(n));
    for (double& v : x) v = v * v;  // nonnegative inputs
    std::vector<double> expected(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] =
          std::sqrt(x[static_cast<size_t>(i)]);
    }
    ForEachTier([&](SimdTier) {
      std::vector<double> out(static_cast<size_t>(n), -1.0);
      simd::SqrtArray(x.data(), out.data(), n);
      // IEEE sqrt is correctly rounded: bit-identical across tiers.
      EXPECT_EQ(MaxAbsDiffSpan(out, expected), 0.0) << "n=" << n;
    });
  }
}

TEST_F(SimdKernelTest, SinCosMatchesLibmWithinPolynomialTolerance) {
  for (int64_t n : kEdgeSizes) {
    std::vector<double> angles(static_cast<size_t>(n));
    Rng rng(11000 + static_cast<uint64_t>(n));
    for (double& a : angles) a = rng.Gaussian(0.0, 2.0);
    if (n >= 4) {
      angles[0] = 0.0;
      angles[1] = -3.14159265358979323846;
      angles[2] = 1.5707963267948966;
      angles[3] = -0.0;
    }
    std::vector<double> ref_sin(static_cast<size_t>(n)),
        ref_cos(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      ref_sin[static_cast<size_t>(i)] = std::sin(angles[static_cast<size_t>(i)]);
      ref_cos[static_cast<size_t>(i)] = std::cos(angles[static_cast<size_t>(i)]);
    }
    ForEachTier([&](SimdTier tier) {
      std::vector<double> s(static_cast<size_t>(n), -9.0),
          c(static_cast<size_t>(n), -9.0);
      simd::SinCos(angles.data(), s.data(), c.data(), n);
      if (tier == SimdTier::kScalar) {
        EXPECT_EQ(MaxAbsDiffSpan(s, ref_sin), 0.0) << "n=" << n;
        EXPECT_EQ(MaxAbsDiffSpan(c, ref_cos), 0.0) << "n=" << n;
      } else {
        EXPECT_LE(MaxAbsDiffSpan(s, ref_sin), 1e-12) << "n=" << n;
        EXPECT_LE(MaxAbsDiffSpan(c, ref_cos), 1e-12) << "n=" << n;
      }
    });
  }
}

// ToCartesian's early exit (docs/geometry.md) relies on |sin| and |cos|
// never exceeding 1, so a running product can only shrink. Sweep the
// neighbourhoods of the peaks (multiples of pi/2, where a polynomial would
// overshoot first) plus a wide random range.
TEST_F(SimdKernelTest, SinCosStaysWithinUnitInterval) {
  std::vector<double> angles;
  for (int k = -64; k <= 64; ++k) {
    double up = k * (std::numbers::pi / 2);
    double down = up;
    for (int step = 0; step < 64; ++step) {
      angles.push_back(up);
      angles.push_back(down);
      up = std::nextafter(up, 1e9);
      down = std::nextafter(down, -1e9);
    }
    for (int e = 8; e <= 52; ++e) {
      angles.push_back(k * (std::numbers::pi / 2) + std::ldexp(1.0, -e));
      angles.push_back(k * (std::numbers::pi / 2) - std::ldexp(1.0, -e));
    }
  }
  Rng rng(11500);
  for (int i = 0; i < 100000; ++i) angles.push_back(rng.Gaussian(0.0, 40.0));
  const auto n = static_cast<int64_t>(angles.size());
  ForEachTier([&](SimdTier) {
    std::vector<double> s(angles.size()), c(angles.size());
    simd::SinCos(angles.data(), s.data(), c.data(), n);
    for (size_t i = 0; i < angles.size(); ++i) {
      ASSERT_LE(std::fabs(s[i]), 1.0) << "sin(" << angles[i] << ")";
      ASSERT_LE(std::fabs(c[i]), 1.0) << "cos(" << angles[i] << ")";
    }
  });
}

TEST_F(SimdKernelTest, Atan2MatchesLibmIncludingAxesAndSignedZero) {
  for (int64_t n : kEdgeSizes) {
    std::vector<double> y = RandnF64(n, 12000 + static_cast<uint64_t>(n));
    std::vector<double> x = RandnF64(n, 13000 + static_cast<uint64_t>(n));
    if (n >= 8) {
      // The exact quadrant/axis conventions ToSpherical depends on.
      y[0] = 1.0, x[0] = 0.0;    // +pi/2
      y[1] = -1.0, x[1] = 0.0;   // -pi/2
      y[2] = 0.0, x[2] = -2.0;   // +pi
      y[3] = -0.0, x[3] = -2.0;  // -pi
      y[4] = 0.0, x[4] = 3.0;    // +0
      y[5] = -0.0, x[5] = 3.0;   // -0
      y[6] = 0.0, x[6] = 0.0;    // +0 by convention
      y[7] = 5.0, x[7] = -0.0;   // +pi/2
    }
    std::vector<double> expected(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      expected[static_cast<size_t>(i)] = std::atan2(
          y[static_cast<size_t>(i)], x[static_cast<size_t>(i)]);
    }
    ForEachTier([&](SimdTier tier) {
      std::vector<double> out(static_cast<size_t>(n), -9.0);
      simd::Atan2(y.data(), x.data(), out.data(), n);
      if (tier == SimdTier::kScalar) {
        EXPECT_EQ(MaxAbsDiffSpan(out, expected), 0.0) << "n=" << n;
      } else {
        EXPECT_LE(MaxAbsDiffSpan(out, expected), 1e-12) << "n=" << n;
        // x == 0 lanes are patched with libm: exactly equal, right signs.
        for (int64_t i = 0; i < n; ++i) {
          if (x[static_cast<size_t>(i)] == 0.0) {
            EXPECT_EQ(out[static_cast<size_t>(i)],
                      expected[static_cast<size_t>(i)])
                << "n=" << n << " i=" << i;
          }
        }
      }
    });
  }
}

TEST_F(SimdKernelTest, GaussianAddScalarTierReplaysPlainGaussianCalls) {
  SetSimdTier(SimdTier::kScalar);
  for (int64_t n : kEdgeSizes) {
    const double stddev = 2.5;
    Rng kernel_stream(14000 + static_cast<uint64_t>(n));
    std::vector<double> dst(static_cast<size_t>(n), 1.0);
    simd::GaussianAdd(kernel_stream, stddev, dst.data(), n);

    Rng ref_stream(14000 + static_cast<uint64_t>(n));
    std::vector<double> expected(static_cast<size_t>(n), 1.0);
    for (double& v : expected) v += ref_stream.Gaussian(0.0, stddev);
    EXPECT_EQ(MaxAbsDiffSpan(dst, expected), 0.0) << "n=" << n;

    Rng kernel_stream32(14000 + static_cast<uint64_t>(n));
    std::vector<float> dst32(static_cast<size_t>(n), 1.0f);
    simd::GaussianAdd(kernel_stream32, stddev, dst32.data(), n);
    Rng ref_stream32(14000 + static_cast<uint64_t>(n));
    std::vector<float> expected32(static_cast<size_t>(n), 1.0f);
    for (float& v : expected32) {
      v += static_cast<float>(ref_stream32.Gaussian(0.0, stddev));
    }
    EXPECT_EQ(MaxAbsDiffSpan(dst32, expected32), 0.0) << "n=" << n;
  }
}

TEST_F(SimdKernelTest, GaussianAddTiersConsumeTheSameUniformsAndAgreeClosely) {
  if (!SimdTierAvailable(SimdTier::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this host";
  }
  for (int64_t n : kEdgeSizes) {
    const double stddev = 1.5;
    SetSimdTier(SimdTier::kScalar);
    Rng scalar_stream(15000 + static_cast<uint64_t>(n));
    std::vector<double> scalar_out(static_cast<size_t>(n), 0.0);
    simd::GaussianAdd(scalar_stream, stddev, scalar_out.data(), n);

    SetSimdTier(SimdTier::kAvx2);
    Rng avx2_stream(15000 + static_cast<uint64_t>(n));
    std::vector<double> avx2_out(static_cast<size_t>(n), 0.0);
    simd::GaussianAdd(avx2_stream, stddev, avx2_out.data(), n);

    // Same stream, same Box-Muller pairs; only the log/sincos rounding
    // differs, so every variate agrees to ~1 ulp of its magnitude.
    EXPECT_LE(MaxAbsDiffSpan(scalar_out, avx2_out), 1e-10) << "n=" << n;

    // Repeating the AVX2 call from the same seed is bit-identical.
    Rng again(15000 + static_cast<uint64_t>(n));
    std::vector<double> avx2_again(static_cast<size_t>(n), 0.0);
    simd::GaussianAdd(again, stddev, avx2_again.data(), n);
    EXPECT_EQ(MaxAbsDiffSpan(avx2_out, avx2_again), 0.0) << "n=" << n;
  }
}

// --- Per-tier 1-vs-8-thread determinism -----------------------------------
//
// parallel_determinism_test pins the thread-count contract under the
// default tier; these re-run the load-bearing cases with each tier forced,
// so an AVX2 kernel that leaked chunk-position or thread dependence would
// be caught even on hosts where scalar is the default.

template <typename Fn>
auto AtThreadCounts(Fn fn) {
  SetGlobalThreadCount(1);
  auto serial = fn();
  SetGlobalThreadCount(8);
  auto parallel = fn();
  SetGlobalThreadCount(0);
  return std::make_pair(std::move(serial), std::move(parallel));
}

TEST_F(SimdTierDeterminismTest, MatmulBitIdenticalPerTier) {
  ForEachTier([&](SimdTier) {
    const auto [serial, parallel] = AtThreadCounts([] {
      Rng rng(3);
      const Tensor a = Tensor::Randn({37, 53}, rng);
      const Tensor b = Tensor::Randn({53, 29}, rng);
      return Matmul(a, b);
    });
    EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
  });
}

TEST_F(SimdTierDeterminismTest, ClipAndSumBitIdenticalPerTier) {
  ForEachTier([&](SimdTier) {
    const auto [serial, parallel] = AtThreadCounts([] {
      Rng rng(7);
      std::vector<Tensor> grads;
      for (int i = 0; i < 23; ++i) grads.push_back(Tensor::Randn({129}, rng));
      const FlatClipper clipper(0.1);
      return ClipAndSum(grads, clipper);
    });
    EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
  });
}

TEST_F(SimdTierDeterminismTest, GeoDpPerturbBitIdenticalPerTier) {
  ForEachTier([&](SimdTier) {
    const auto [serial, parallel] = AtThreadCounts([] {
      GeoDpOptions options;
      options.base.clip_threshold = 0.1;
      options.base.batch_size = 16;
      options.base.noise_multiplier = 1.0;
      options.beta = 0.1;
      const GeoDpPerturber perturber(options);
      Rng data_rng(17), noise_rng(19);
      const Tensor g = Tensor::Randn({10000}, data_rng);
      return perturber.Perturb(g, noise_rng);
    });
    EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
  });
}

TEST_F(SimdTierDeterminismTest, TrainedWeightsBitIdenticalPerTier) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 48;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = 43;
  const InMemoryDataset train = MakeSyntheticImages(data_options);

  ForEachTier([&](SimdTier) {
    const auto [serial, parallel] = AtThreadCounts([&] {
      Rng rng(47);
      auto model = MakeLogisticRegression(64, 10, rng);
      TrainerOptions options;
      options.method = PerturbationMethod::kGeoDp;
      options.batch_size = 16;
      options.iterations = 4;
      options.learning_rate = 0.5;
      options.noise_multiplier = 1.0;
      options.seed = 53;
      DpTrainer trainer(model.get(), &train, nullptr, options);
      trainer.Run().value();
      return FlattenValues(model->Parameters());
    });
    EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
  });
}

// Proof the dispatch is not inert: FMA contraction makes the AVX2 matmul
// round differently from scalar, so forcing different tiers must produce
// different bits on a float-accumulated kernel.
TEST_F(SimdTierDeterminismTest, TiersProduceDistinctRoundingOnFmaKernels) {
  const std::vector<SimdTier> tiers = AvailableSimdTiers();
  if (tiers.size() < 2) GTEST_SKIP() << "only one tier built";

  const auto matmul_once = [] {
    Rng rng(3);
    const Tensor a = Tensor::Randn({37, 53}, rng);
    const Tensor b = Tensor::Randn({53, 29}, rng);
    return Matmul(a, b);
  };
  SetSimdTier(tiers.front());
  const Tensor base = matmul_once();
  for (size_t t = 1; t < tiers.size(); ++t) {
    SetSimdTier(tiers[t]);
    const Tensor other = matmul_once();
    EXPECT_GT(MaxAbsDiff(base, other), 0.0)
        << SimdTierName(tiers[t])
        << " matmul bit-identical to scalar — dispatch may be inert";
    EXPECT_LE(MaxAbsDiff(base, other), 1e-4) << SimdTierName(tiers[t]);
  }
}

// Cross-tier sanity on the end-to-end pipeline: forcing a different tier
// changes rounding, not semantics — trained weights stay close. (They may
// even be bit-identical at this scale: per-tier gradient differences of
// ~1e-10 fall below float weight spacing after the lr multiply.)
TEST_F(SimdTierDeterminismTest, TiersAgreeOnTrainingWithinTolerance) {
  const std::vector<SimdTier> tiers = AvailableSimdTiers();
  if (tiers.size() < 2) GTEST_SKIP() << "only one tier built";

  SyntheticImageOptions data_options;
  data_options.num_examples = 48;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = 61;
  const InMemoryDataset train = MakeSyntheticImages(data_options);
  const auto train_once = [&] {
    Rng rng(67);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions options;
    options.method = PerturbationMethod::kGeoDp;
    options.batch_size = 16;
    options.iterations = 2;
    options.learning_rate = 0.1;
    options.noise_multiplier = 1.0;
    options.seed = 71;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    trainer.Run().value();
    return FlattenValues(model->Parameters());
  };

  SetSimdTier(tiers.front());
  const Tensor base = train_once();
  for (size_t t = 1; t < tiers.size(); ++t) {
    SetSimdTier(tiers[t]);
    const Tensor other = train_once();
    EXPECT_LE(MaxAbsDiff(base, other), 1e-2) << SimdTierName(tiers[t]);
  }
}

}  // namespace
}  // namespace geodp
