#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "base/simd/kernels.h"
#include "base/thread_pool.h"

namespace geodp {
namespace {

// Rows of the output each ParallelFor chunk owns. Every row is computed
// entirely within one chunk, so results are bit-identical to the serial
// loop at any thread count.
constexpr int64_t kMatmulRowGrain = 8;

// Samples per chunk when summing a batch of tensors; partial sums are
// reduced in chunk order, fixing the floating-point association
// independently of the thread count.
constexpr int64_t kSumGrain = 4;

// Transpose copies kTransposeBlock x kTransposeBlock tiles (4 KiB of
// floats): a tile's source and destination cache lines stay resident
// while it is copied, instead of each strided access touching a new line.
constexpr int64_t kTransposeBlock = 32;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.SubInPlace(b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  GEODP_CHECK(SameShape(a, b));
  Tensor out = a;
  for (int64_t i = 0; i < out.numel(); ++i) out[i] *= b[i];
  return out;
}

Tensor Scale(const Tensor& a, float factor) {
  Tensor out = a;
  out.ScaleInPlace(factor);
  return out;
}

double Dot(const Tensor& a, const Tensor& b) {
  GEODP_CHECK_EQ(a.numel(), b.numel());
  return simd::Dot(a.data(), b.data(), a.numel());
}

Tensor Matmul(const Tensor& a, const Tensor& b) {
  GEODP_CHECK_EQ(a.ndim(), 2);
  GEODP_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  GEODP_CHECK_EQ(k, b.dim(0));
  Tensor out({m, n});
  MatmulInto(a.data(), b.data(), out.data(), m, k, n);
  return out;
}

void MatmulInto(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n) {
  // Rows are independent, so parallelizing over row blocks is exact; the
  // kernel keeps k in increasing order within each output element, so the
  // accumulation association is fixed by the kernel, not the thread count.
  ParallelFor(0, m, kMatmulRowGrain, [&](int64_t row_begin, int64_t row_end) {
    simd::MatmulRowBlock(a, b, out, row_begin, row_end, k, n);
  });
}

Tensor Transpose(const Tensor& a) {
  GEODP_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  const float* src = a.data();
  float* dst = out.data();
  for (int64_t j0 = 0; j0 < n; j0 += kTransposeBlock) {
    const int64_t j1 = std::min(j0 + kTransposeBlock, n);
    for (int64_t i0 = 0; i0 < m; i0 += kTransposeBlock) {
      const int64_t i1 = std::min(i0 + kTransposeBlock, m);
      for (int64_t j = j0; j < j1; ++j) {
        for (int64_t i = i0; i < i1; ++i) dst[j * m + i] = src[i * n + j];
      }
    }
  }
  return out;
}

std::vector<int64_t> ArgMaxRows(const Tensor& a) {
  GEODP_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  std::vector<int64_t> result(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    int64_t best = 0;
    float best_value = a[i * n];
    for (int64_t j = 1; j < n; ++j) {
      if (a[i * n + j] > best_value) {
        best_value = a[i * n + j];
        best = j;
      }
    }
    result[static_cast<size_t>(i)] = best;
  }
  return result;
}

double Mean(const Tensor& a) {
  GEODP_CHECK_GT(a.numel(), 0);
  return a.Sum() / static_cast<double>(a.numel());
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  GEODP_CHECK(SameShape(a, b));
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(
        max_diff,
        std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return max_diff;
}

bool AllClose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (!SameShape(a, b)) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double diff =
        std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (diff > atol + rtol * std::fabs(static_cast<double>(b[i]))) {
      return false;
    }
  }
  return true;
}

void AccumulateSum(const std::vector<Tensor>& tensors, Tensor& sum) {
  if (tensors.empty()) return;
  const int64_t count = static_cast<int64_t>(tensors.size());
  const int64_t num_chunks = (count + kSumGrain - 1) / kSumGrain;
  // Per-chunk partial sums, reduced in chunk order: the floating-point
  // association depends only on kSumGrain, not on the thread count.
  std::vector<Tensor> partials(static_cast<size_t>(num_chunks));
  ParallelForChunks(0, count, kSumGrain,
                    [&](int64_t chunk, int64_t lo, int64_t hi) {
                      Tensor partial = tensors[static_cast<size_t>(lo)];
                      for (int64_t i = lo + 1; i < hi; ++i) {
                        partial.AddInPlace(tensors[static_cast<size_t>(i)]);
                      }
                      partials[static_cast<size_t>(chunk)] =
                          std::move(partial);
                    });
  for (const Tensor& partial : partials) sum.AddInPlace(partial);
}

double CosineSimilarity(const Tensor& a, const Tensor& b) {
  const double na = a.L2Norm();
  const double nb = b.L2Norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

}  // namespace geodp
