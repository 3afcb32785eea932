// Scalar reference tier. Each kernel reproduces the element loop it
// replaced (tensor.cc, tensor_ops.cc, im2col.cc, spherical.cc,
// perturbation.cc) bit-for-bit: same expression shapes, same accumulation
// order, same libm calls. This TU is compiled with the project's default
// flags — no -mavx2/-mfma — so no FMA contraction can change roundings
// relative to the historical code.

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>

#include "base/simd/kernels.h"
#include "base/simd/kernels_impl.h"

namespace geodp {
namespace simd {
namespace {

void AddScalar(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

void AxpyScalar(float* y, const float* x, float alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScaleScalar(float* x, float factor, int64_t n) {
  for (int64_t i = 0; i < n; ++i) x[i] *= factor;
}

void ScaleAssignScalar(float* dst, const float* src, float scale, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[i] * scale;
}

double SumSquaresScalar(const float* x, int64_t n) {
  double sum_sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum_sq += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return sum_sq;
}

std::array<double, 4> SumSquares4Scalar(const std::array<const float*, 4>& x,
                                        int64_t n) {
  std::array<double, 4> sum_sq = {0.0, 0.0, 0.0, 0.0};
  for (int64_t i = 0; i < n; ++i) {
    for (size_t s = 0; s < 4; ++s) {
      const double v = static_cast<double>(x[s][i]);
      sum_sq[s] += v * v;
    }
  }
  return sum_sq;
}

double DotScalar(const float* a, const float* b, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    sum += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return sum;
}

void MatmulRowBlockScalar(const float* a, const float* b, float* out,
                          int64_t row_begin, int64_t row_end, int64_t k,
                          int64_t n) {
  std::fill(out + row_begin * n, out + row_end * n, 0.0f);
  for (int64_t k0 = 0; k0 < k; k0 += kMatmulKTile) {
    const int64_t k1 = k0 + kMatmulKTile < k ? k0 + kMatmulKTile : k;
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* orow = out + i * n;
      for (int64_t kk = k0; kk < k1; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0f) continue;
        const float* brow = b + kk * n;
        for (int64_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
      }
    }
  }
}

void TransposeTileScalar(const float* src, int64_t src_stride, float* dst,
                         int64_t dst_stride, int64_t rows, int64_t cols) {
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) {
      dst[j * dst_stride + i] = src[i * src_stride + j];
    }
  }
}

void CopyRunsScalar(const float* src, int64_t src_stride, float* dst,
                    int64_t dst_stride, int64_t runs, int64_t n) {
  for (int64_t r = 0; r < runs; ++r) {
    const float* from = src + r * src_stride;
    float* to = dst + r * dst_stride;
    for (int64_t j = 0; j < n; ++j) to[j] = from[j];
  }
}

// Each column row (c, kh, kw) adds its in-bounds outputs onto the image
// in row order, one add per element, so an image element receives its
// contributions in (kh, kw) order.
void Col2ImScalar(const float* columns, int64_t channels, int64_t height,
                  int64_t width, int64_t k, int64_t padding, float* image) {
  const int64_t out_h = height + 2 * padding - k + 1;
  const int64_t out_w = width + 2 * padding - k + 1;
  const int64_t spatial = out_h * out_w;
  for (int64_t c = 0; c < channels; ++c) {
    int64_t row = c * k * k;
    for (int64_t kh = 0; kh < k; ++kh) {
      for (int64_t kw = 0; kw < k; ++kw, ++row) {
        const float* src_row = columns + row * spatial;
        // Output ow maps to image column ow + kw - padding, inside the
        // image for ow in [ow_lo, ow_hi).
        const int64_t ow_lo = std::clamp<int64_t>(padding - kw, 0, out_w);
        const int64_t ow_hi =
            std::clamp<int64_t>(width + padding - kw, ow_lo, out_w);
        for (int64_t oh = 0; oh < out_h; ++oh) {
          const int64_t ih = oh + kh - padding;
          if (ih < 0 || ih >= height) continue;
          float* dst = image + (c * height + ih) * width;
          const float* src = src_row + oh * out_w;
          const int64_t shift = kw - padding;
          for (int64_t ow = ow_lo; ow < ow_hi; ++ow) dst[ow + shift] += src[ow];
        }
      }
    }
  }
}

void MaxPool2x2Scalar(const float* x, int64_t planes, int64_t out_h,
                      int64_t out_w, float* out, int64_t* argmax) {
  const int64_t in_w = 2 * out_w;
  for (int64_t row = 0; row < planes * out_h; ++row) {
    for (int64_t ow = 0; ow < out_w; ++ow) {
      // Selects, not branches: on sign-random activations which element
      // wins is a coin flip.
      const int64_t first = 2 * row * in_w + 2 * ow;
      int64_t best_index = first;
      float best = x[first];
      for (const int64_t offset : {int64_t{1}, in_w, in_w + 1}) {
        const int64_t xi = first + offset;
        const bool greater = x[xi] > best;
        best = greater ? x[xi] : best;
        best_index = greater ? xi : best_index;
      }
      out[row * out_w + ow] = best;
      argmax[row * out_w + ow] = best_index;
    }
  }
}

void SqrtArrayScalar(const double* x, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::sqrt(x[i]);
}

void SinCosScalar(const double* angles, double* sin_out, double* cos_out,
                  int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    sin_out[i] = std::sin(angles[i]);
    cos_out[i] = std::cos(angles[i]);
  }
}

bool QuadrantSignsScalar(const double* angles, int64_t n,
                         uint64_t* sin_negative, uint64_t* cos_negative) {
  uint64_t sin_bits = 0;
  uint64_t cos_bits = 0;
  for (int64_t i = 0; i < n; ++i) {
    // NaN fails the comparison.
    if (!(std::fabs(angles[i]) < kQuadrantRange)) return false;
    // q = floor(t) by truncation (|t| < 11); std::floor is a libm call
    // without SSE4.1.
    const double t = angles[i] * (2.0 / std::numbers::pi);
    int64_t q = static_cast<int64_t>(t);
    if (t < static_cast<double>(q)) --q;
    const double frac = t - static_cast<double>(q);
    if (!(frac >= kQuadrantMargin && frac <= 1.0 - kQuadrantMargin)) {
      return false;
    }
    // Two's complement: bit 1 of q is bit 1 of q mod 4 for negative q too.
    const auto bits = static_cast<uint64_t>(q);
    sin_bits |= ((bits >> 1) & 1) << i;
    cos_bits |= (((bits + 1) >> 1) & 1) << i;
  }
  *sin_negative = sin_bits;
  *cos_negative = cos_bits;
  return true;
}

void Atan2Scalar(const double* y, const double* x, double* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::atan2(y[i], x[i]);
}

void WrapReflectScalar(double* angles, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double theta = std::fmod(angles[i], 2.0 * std::numbers::pi);
    if (theta < 0) theta += 2.0 * std::numbers::pi;
    if (theta > std::numbers::pi) theta = 2.0 * std::numbers::pi - theta;
    angles[i] = theta;
  }
}

void GaussianAddF32Scalar(Rng& stream, double stddev, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] += static_cast<float>(stream.Gaussian(0.0, stddev));
  }
}

void GaussianAddF64Scalar(Rng& stream, double stddev, double* dst,
                          int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += stream.Gaussian(0.0, stddev);
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      .add = AddScalar,
      .axpy = AxpyScalar,
      .scale = ScaleScalar,
      .scale_assign = ScaleAssignScalar,
      .sum_squares = SumSquaresScalar,
      .sum_squares4 = SumSquares4Scalar,
      .dot = DotScalar,
      .matmul_row_block = MatmulRowBlockScalar,
      .transpose_tile = TransposeTileScalar,
      .copy_runs = CopyRunsScalar,
      .col2im = Col2ImScalar,
      .max_pool_2x2 = MaxPool2x2Scalar,
      .sqrt_array = SqrtArrayScalar,
      .sincos = SinCosScalar,
      .quadrant_signs = QuadrantSignsScalar,
      .atan2 = Atan2Scalar,
      .wrap_reflect = WrapReflectScalar,
      .gaussian_add_f32 = GaussianAddF32Scalar,
      .gaussian_add_f64 = GaussianAddF64Scalar,
  };
  return table;
}

}  // namespace simd
}  // namespace geodp
