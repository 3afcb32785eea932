// AVX2/FMA kernel tier. This is the only translation unit compiled with
// -mavx2 -mfma (set per-source in src/CMakeLists.txt), and it is only
// dispatched to after the cpuid probe in dispatch.cc confirms the host
// executes both ISA extensions.
//
// Results may differ from the scalar tier in the last bits: FMA contracts
// multiply-add chains into single roundings, and the transcendental
// kernels use the vector polynomials in avx2_math.h instead of libm. They
// are still pure functions of the inputs, so within this tier output is
// bit-identical at any thread count; tests pin separate goldens per tier.

#if defined(GEODP_SIMD_AVX2_BUILD)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numbers>

#include "base/simd/avx2_math.h"
#include "base/simd/kernels.h"
#include "base/simd/kernels_impl.h"

namespace geodp {
namespace simd {
namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

void AddAvx2(float* y, const float* x, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                          _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void AxpyAvx2(float* y, const float* x, float alpha, int64_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                                            _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void ScaleAvx2(float* x, float factor, int64_t n) {
  const __m256 vf = _mm256_set1_ps(factor);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), vf));
  }
  for (; i < n; ++i) x[i] *= factor;
}

void ScaleAssignAvx2(float* dst, const float* src, float scale, int64_t n) {
  const __m256 vf = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_loadu_ps(src + i), vf));
  }
  for (; i < n; ++i) dst[i] = src[i] * scale;
}

// Horizontal sum in a fixed association: (l0 + l1) + (l2 + l3).
double HorizontalSum(__m256d v) {
  std::array<double, 4> lanes;
  _mm256_storeu_pd(lanes.data(), v);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

double SumSquaresAvx2(const float* x, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x + i));
    acc = _mm256_fmadd_pd(v, v, acc);
  }
  double sum = HorizontalSum(acc);
  for (; i < n; ++i) {
    sum = std::fma(static_cast<double>(x[i]), static_cast<double>(x[i]), sum);
  }
  return sum;
}

// Four SumSquaresAvx2 chains side by side: the same accumulator, FMA
// order, horizontal sum and fma tail per array.
std::array<double, 4> SumSquares4Avx2(const std::array<const float*, 4>& x,
                                      int64_t n) {
  __m256d acc[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                    _mm256_setzero_pd(), _mm256_setzero_pd()};
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (size_t s = 0; s < 4; ++s) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(x[s] + i));
      acc[s] = _mm256_fmadd_pd(v, v, acc[s]);
    }
  }
  std::array<double, 4> sums;
  for (size_t s = 0; s < 4; ++s) {
    sums[s] = HorizontalSum(acc[s]);
    for (int64_t t = i; t < n; ++t) {
      const double v = static_cast<double>(x[s][t]);
      sums[s] = std::fma(v, v, sums[s]);
    }
  }
  return sums;
}

double DotAvx2(const float* a, const float* b, int64_t n) {
  __m256d acc = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d va = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    acc = _mm256_fmadd_pd(va, vb, acc);
  }
  double sum = HorizontalSum(acc);
  for (; i < n; ++i) {
    sum = std::fma(static_cast<double>(a[i]), static_cast<double>(b[i]), sum);
  }
  return sum;
}

// Output widths below this take the register-tiled path: a row is at most
// eight vectors, so a tile of output rows stays in registers for all of k.
constexpr int64_t kNarrowMaxN = 64;

// Lanes [0, live) of a vector, for the partial last vector of a row.
__m256i FirstLanes(int64_t live) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// out[i0, i0 + R) x [j0, j0 + 8V) = a · b over the whole k loop, with the
// R x V accumulators in registers, started at +0. The last vector writes
// only its first `last_lanes` lanes.
// Each element is the same k-ordered FMA chain as the row loop below. A
// zero a must add nothing, even over a NaN or infinite b; instead of a
// branch, which mispredicts on sign-random activations, the product
// becomes (-0) * (+0), and x + (-0) == x for every x. No vector argument
// is passed: GCC omits the vzeroupper on the exit of a function that
// takes one, and a caller returning into SSE code with dirty upper halves
// ran the next SSE loop (the loss) ~15x slower.
template <int R, int V>
void NarrowTile(const float* a, const float* b, float* out, int64_t i0,
                int64_t k, int64_t n, int64_t j0, int64_t last_lanes) {
  const __m256i last = FirstLanes(last_lanes);
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j0;
    __m256 vb[V];
    for (int v = 0; v + 1 < V; ++v) vb[v] = _mm256_loadu_ps(brow + 8 * v);
    vb[V - 1] = _mm256_maskload_ps(brow + 8 * (V - 1), last);
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_broadcast_ss(a + (i0 + r) * k + kk);
      const __m256 zero = _mm256_cmp_ps(va, _mm256_setzero_ps(), _CMP_EQ_OQ);
      const __m256 vm = _mm256_or_ps(va, _mm256_and_ps(zero, neg_zero));
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_ps(vm, _mm256_andnot_ps(zero, vb[v]),
                                    acc[r][v]);
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* orow = out + (i0 + r) * n + j0;
    for (int v = 0; v + 1 < V; ++v) _mm256_storeu_ps(orow + 8 * v, acc[r][v]);
    _mm256_maskstore_ps(orow + 8 * (V - 1), last, acc[r][V - 1]);
  }
}

// Rows [i0, i0 + R) of a narrow product, two vectors per tile.
template <int R>
void NarrowRows(const float* a, const float* b, float* out, int64_t i0,
                int64_t k, int64_t n) {
  const int64_t vectors = (n + 7) / 8;
  const int64_t last_lanes = n - 8 * (vectors - 1);
  int64_t v0 = 0;
  for (; v0 + 2 < vectors; v0 += 2) {
    NarrowTile<R, 2>(a, b, out, i0, k, n, 8 * v0, 8);
  }
  if (vectors - v0 == 2) {
    NarrowTile<R, 2>(a, b, out, i0, k, n, 8 * v0, last_lanes);
  } else {
    NarrowTile<R, 1>(a, b, out, i0, k, n, 8 * v0, last_lanes);
  }
}

void MatmulRowBlockAvx2(const float* a, const float* b, float* out,
                        int64_t row_begin, int64_t row_end, int64_t k,
                        int64_t n) {
  if (n < kNarrowMaxN) {
    int64_t i = row_begin;
    for (; i + 4 <= row_end; i += 4) NarrowRows<4>(a, b, out, i, k, n);
    switch (row_end - i) {
      case 3: NarrowRows<3>(a, b, out, i, k, n); break;
      case 2: NarrowRows<2>(a, b, out, i, k, n); break;
      case 1: NarrowRows<1>(a, b, out, i, k, n); break;
      default: break;
    }
    return;
  }
  // One tile even at k == 0, so that the rows are still written.
  for (int64_t k0 = 0; k0 < std::max<int64_t>(k, 1); k0 += kMatmulKTile) {
    const int64_t k1 = k0 + kMatmulKTile < k ? k0 + kMatmulKTile : k;
    for (int64_t i = row_begin; i < row_end; ++i) {
      float* orow = out + i * n;
      int64_t kk = k0;
      if (k0 == 0) {
        // The row's chain starts at its first nonzero a with
        // fma(a, b, +0), the first step of a chain onto a +0 row, without
        // zero-filling the row and loading it back. A first tile whose a
        // row is all zero writes +0.
        while (kk < k1 && a[i * k + kk] == 0.0f) ++kk;
        if (kk == k1) {
          std::fill(orow, orow + n, 0.0f);
          continue;
        }
        const float aik = a[i * k + kk];
        const float* brow = b + kk * n;
        const __m256 va = _mm256_set1_ps(aik);
        int64_t j = 0;
        for (; j + 8 <= n; j += 8) {
          _mm256_storeu_ps(orow + j,
                           _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j),
                                           _mm256_setzero_ps()));
        }
        for (; j < n; ++j) orow[j] = std::fma(aik, brow[j], 0.0f);
        ++kk;
      }
      for (; kk < k1; ++kk) {
        const float aik = a[i * k + kk];
        if (aik == 0.0f) continue;
        const float* brow = b + kk * n;
        const __m256 va = _mm256_set1_ps(aik);
        int64_t j = 0;
        for (; j + 8 <= n; j += 8) {
          _mm256_storeu_ps(
              orow + j, _mm256_fmadd_ps(va, _mm256_loadu_ps(brow + j),
                                        _mm256_loadu_ps(orow + j)));
        }
        for (; j < n; ++j) orow[j] = std::fma(aik, brow[j], orow[j]);
      }
    }
  }
}

// Transposes the 8x8 block at src into dst in registers: pairs of rows
// interleave, then pairs of pairs, then the 128-bit halves swap.
void Transpose8x8(const float* src, int64_t src_stride, float* dst,
                  int64_t dst_stride) {
  __m256 r[8];
  for (int64_t i = 0; i < 8; ++i) r[i] = _mm256_loadu_ps(src + i * src_stride);
  __m256 t[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  __m256 u[8];
  for (int h = 0; h < 8; h += 4) {
    u[h] = _mm256_shuffle_ps(t[h], t[h + 2], _MM_SHUFFLE(1, 0, 1, 0));
    u[h + 1] = _mm256_shuffle_ps(t[h], t[h + 2], _MM_SHUFFLE(3, 2, 3, 2));
    u[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(1, 0, 1, 0));
    u[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  for (int64_t j = 0; j < 4; ++j) {
    _mm256_storeu_ps(dst + j * dst_stride,
                     _mm256_permute2f128_ps(u[j], u[j + 4], 0x20));
    _mm256_storeu_ps(dst + (j + 4) * dst_stride,
                     _mm256_permute2f128_ps(u[j], u[j + 4], 0x31));
  }
}

void TransposeTileAvx2(const float* src, int64_t src_stride, float* dst,
                       int64_t dst_stride, int64_t rows, int64_t cols) {
  if (rows < 8 || cols < 8) {
    ScalarKernels().transpose_tile(src, src_stride, dst, dst_stride, rows,
                                   cols);
    return;
  }
  // The last 8x8 block of each dimension ends at the tile's edge, so it
  // overlaps the block before it and writes the same values again.
  for (int64_t i = 0; i < rows; i += 8) {
    const int64_t i0 = std::min(i, rows - 8);
    for (int64_t j = 0; j < cols; j += 8) {
      const int64_t j0 = std::min(j, cols - 8);
      Transpose8x8(src + i0 * src_stride + j0, src_stride,
                   dst + j0 * dst_stride + i0, dst_stride);
    }
  }
}

// Runs of 8 or more floats copy in vectors whose last one ends at the
// run's end, overlapping the one before; runs of 4-7 use two overlapping
// 4-float vectors, shorter runs a lane mask. No run goes through memcpy,
// whose call costs more than a 5-float copy.
void CopyRunsAvx2(const float* src, int64_t src_stride, float* dst,
                  int64_t dst_stride, int64_t runs, int64_t n) {
  const __m128i live = _mm_cmpgt_epi32(
      _mm_set1_epi32(static_cast<int>(std::min<int64_t>(n, 4))),
      _mm_setr_epi32(0, 1, 2, 3));
  for (int64_t r = 0; r < runs; ++r) {
    const float* from = src + r * src_stride;
    float* to = dst + r * dst_stride;
    if (n >= 8) {
      for (int64_t j = 0; j < n - 8; j += 8) {
        _mm256_storeu_ps(to + j, _mm256_loadu_ps(from + j));
      }
      _mm256_storeu_ps(to + n - 8, _mm256_loadu_ps(from + n - 8));
    } else if (n >= 4) {
      _mm_storeu_ps(to, _mm_loadu_ps(from));
      _mm_storeu_ps(to + n - 4, _mm_loadu_ps(from + n - 4));
    } else {
      _mm_maskstore_ps(to, live, _mm_maskload_ps(from, live));
    }
  }
}

// Kernels wider than this fold with the scalar loop.
constexpr int64_t kMaxFoldKernel = 8;

// An 8-column block of image row ih is loaded once, receives all its
// (kh, kw) contributions in that order in a register, and is stored once.
// Folding one column row at a time instead reads back, one float to the
// side, what the previous (kh, kw) has just stored, and a vector load
// does not forward from a store it only partly overlaps. Lane l of the
// block is image column j + l; for kw it takes output column ow0 + l,
// inside [0, out_w) for the lanes [lo, hi). Those are loaded from output
// column ow0 + lo and moved up lo lanes, and every other lane adds -0,
// which leaves every x as it was. The lane masks depend only on the
// block and kw, so they are built once per block.
void Col2ImAvx2(const float* columns, int64_t channels, int64_t height,
                int64_t width, int64_t k, int64_t padding, float* image) {
  if (k > kMaxFoldKernel) {
    ScalarKernels().col2im(columns, channels, height, width, k, padding,
                           image);
    return;
  }
  const int64_t out_h = height + 2 * padding - k + 1;
  const int64_t out_w = width + 2 * padding - k + 1;
  const int64_t spatial = out_h * out_w;
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 neg_zero = _mm256_set1_ps(-0.0f);
  for (int64_t j = 0; j < width; j += 8) {
    const int64_t live = std::min<int64_t>(8, width - j);
    const __m256i row_lanes = FirstLanes(live);
    int64_t from[kMaxFoldKernel];  // -1 when no lane reads this kw
    __m256i loaded[kMaxFoldKernel], shift[kMaxFoldKernel];
    __m256i inside[kMaxFoldKernel];
    for (int64_t kw = 0; kw < k; ++kw) {
      const int64_t ow0 = j + padding - kw;
      const int64_t lo = std::clamp<int64_t>(-ow0, 0, live);
      const int64_t hi = std::clamp<int64_t>(out_w - ow0, lo, live);
      from[kw] = hi > lo ? ow0 + lo : -1;
      loaded[kw] = FirstLanes(hi - lo);
      shift[kw] =
          _mm256_sub_epi32(lane, _mm256_set1_epi32(static_cast<int>(lo)));
      inside[kw] = _mm256_andnot_si256(FirstLanes(lo), FirstLanes(hi));
    }
    // Even rows, then odd rows: a block's masked load that overlaps the
    // previous row's masked store (rows under 8 floats wide) waits for
    // that store to complete. Two rows apart, blocks of rows at least 4
    // floats wide do not overlap.
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t first = 0; first < 2; ++first) {
        for (int64_t ih = first; ih < height; ih += 2) {
          float* row = image + (c * height + ih) * width + j;
          __m256 acc = _mm256_maskload_ps(row, row_lanes);
          for (int64_t kh = 0; kh < k; ++kh) {
            const int64_t oh = ih + padding - kh;
            if (oh < 0 || oh >= out_h) continue;
            const float* src =
                columns + (c * k + kh) * k * spatial + oh * out_w;
            for (int64_t kw = 0; kw < k; ++kw, src += spatial) {
              if (from[kw] < 0) continue;
              const __m256 v = _mm256_permutevar8x32_ps(
                  _mm256_maskload_ps(src + from[kw], loaded[kw]), shift[kw]);
              acc = _mm256_add_ps(
                  acc, _mm256_blendv_ps(neg_zero, v,
                                        _mm256_castsi256_ps(inside[kw])));
            }
          }
          _mm256_maskstore_ps(row, row_lanes, acc);
        }
      }
    }
  }
}

// Four outputs per vector: a row pair's eight inputs per window row split
// into even (left) and odd (right) columns, and the window's four
// elements are compared in row-major order with ordered greater-than
// selects, exactly as the scalar loop does. A row narrower than four
// outputs takes the scalar loop; a wider one ends with a vector that
// overlaps the one before it.
void MaxPool2x2Avx2(const float* x, int64_t planes, int64_t out_h,
                    int64_t out_w, float* out, int64_t* argmax) {
  const int64_t in_w = 2 * out_w;
  if (out_w < 4) {
    ScalarKernels().max_pool_2x2(x, planes, out_h, out_w, out, argmax);
    return;
  }
  const __m128i right = _mm_set1_epi32(1);
  const __m128i below = _mm_set1_epi32(static_cast<int>(in_w));
  const __m128i below_right = _mm_set1_epi32(static_cast<int>(in_w + 1));
  const __m256i window_step = _mm256_setr_epi64x(0, 2, 4, 6);
  for (int64_t row = 0; row < planes * out_h; ++row) {
    const float* top = x + 2 * row * in_w;
    const float* bottom = top + in_w;
    for (int64_t ow = 0;; ow += 4) {
      const int64_t o = std::min(ow, out_w - 4);
      const __m128 top_lo = _mm_loadu_ps(top + 2 * o);
      const __m128 top_hi = _mm_loadu_ps(top + 2 * o + 4);
      const __m128 bottom_lo = _mm_loadu_ps(bottom + 2 * o);
      const __m128 bottom_hi = _mm_loadu_ps(bottom + 2 * o + 4);
      __m128 best = _mm_shuffle_ps(top_lo, top_hi, _MM_SHUFFLE(2, 0, 2, 0));
      __m128i offset = _mm_setzero_si128();
      const __m128 candidates[3] = {
          _mm_shuffle_ps(top_lo, top_hi, _MM_SHUFFLE(3, 1, 3, 1)),
          _mm_shuffle_ps(bottom_lo, bottom_hi, _MM_SHUFFLE(2, 0, 2, 0)),
          _mm_shuffle_ps(bottom_lo, bottom_hi, _MM_SHUFFLE(3, 1, 3, 1))};
      const __m128i offsets[3] = {right, below, below_right};
      for (int e = 0; e < 3; ++e) {
        const __m128 greater = _mm_cmp_ps(candidates[e], best, _CMP_GT_OQ);
        best = _mm_blendv_ps(best, candidates[e], greater);
        offset = _mm_blendv_epi8(offset, offsets[e], _mm_castps_si128(greater));
      }
      _mm_storeu_ps(out + row * out_w + o, best);
      const __m256i index = _mm256_add_epi64(
          _mm256_cvtepi32_epi64(offset),
          _mm256_add_epi64(_mm256_set1_epi64x(2 * row * in_w + 2 * o),
                           window_step));
      std::memcpy(argmax + row * out_w + o, &index, sizeof index);
      if (o + 4 == out_w) break;
    }
  }
}

// _mm256_sqrt_pd is correctly rounded, so this matches std::sqrt (and the
// scalar tier) bit-for-bit.
void SqrtArrayAvx2(const double* x, double* out, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = std::sqrt(x[i]);
}

void SinCosAvx2(const double* angles, double* sin_out, double* cos_out,
                int64_t n) {
  __m256d vs, vc;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    avx2::SinCos(_mm256_loadu_pd(angles + i), &vs, &vc);
    _mm256_storeu_pd(sin_out + i, vs);
    _mm256_storeu_pd(cos_out + i, vc);
  }
  if (i < n) {
    // Padded tail: same vector path as the body, so a value's rounding
    // never depends on its position relative to the tail boundary.
    std::array<double, 4> in = {0.0, 0.0, 0.0, 0.0};
    std::array<double, 4> s, c;
    for (int64_t t = i; t < n; ++t) in[t - i] = angles[t];
    avx2::SinCos(_mm256_loadu_pd(in.data()), &vs, &vc);
    _mm256_storeu_pd(s.data(), vs);
    _mm256_storeu_pd(c.data(), vc);
    for (int64_t t = i; t < n; ++t) {
      sin_out[t] = s[t - i];
      cos_out[t] = c[t - i];
    }
  }
}

// Eight lanes per step, in two vectors of four: a lane is readable when
// |angle| < kQuadrantRange (ordered, so NaN fails) and angle * 2/pi is at
// least kQuadrantMargin from an integer. The sign bits are bit 1 of q and
// of q + 1, shifted into the float sign position and gathered by
// movemask. A last partial step is padded with pi/4 (q = 0), which sets
// no bit.
bool QuadrantSignsAvx2(const double* angles, int64_t n,
                       uint64_t* sin_negative, uint64_t* cos_negative) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d range = _mm256_set1_pd(kQuadrantRange);
  const __m256d two_over_pi = _mm256_set1_pd(2.0 / std::numbers::pi);
  const __m256d low = _mm256_set1_pd(kQuadrantMargin);
  const __m256d high = _mm256_set1_pd(1.0 - kQuadrantMargin);
  // Quadrant of four angles; *readable keeps only the readable lanes set.
  // Unreadable lanes convert to the integer indefinite, whose bits the
  // caller never uses.
  const auto quadrants = [&](__m256d a, __m256d* readable) {
    const __m256d t = _mm256_mul_pd(a, two_over_pi);
    const __m256d whole = _mm256_floor_pd(t);
    const __m256d frac = _mm256_sub_pd(t, whole);
    *readable = _mm256_and_pd(
        *readable,
        _mm256_and_pd(
            _mm256_cmp_pd(_mm256_andnot_pd(sign_mask, a), range, _CMP_LT_OQ),
            _mm256_and_pd(_mm256_cmp_pd(frac, low, _CMP_GE_OQ),
                          _mm256_cmp_pd(frac, high, _CMP_LE_OQ))));
    return _mm256_cvttpd_epi32(whole);
  };
  const auto bit1 = [](__m256i q) {
    return static_cast<uint64_t>(static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(q, 30)))));
  };
  __m256d readable = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  uint64_t sin_bits = 0;
  uint64_t cos_bits = 0;
  for (int64_t i = 0; i < n; i += 8) {
    __m256d a0, a1;
    if (i + 8 <= n) {
      a0 = _mm256_loadu_pd(angles + i);
      a1 = _mm256_loadu_pd(angles + i + 4);
    } else {
      std::array<double, 8> padded;
      padded.fill(std::numbers::pi / 4);
      for (int64_t t = i; t < n; ++t) padded[t - i] = angles[t];
      a0 = _mm256_loadu_pd(padded.data());
      a1 = _mm256_loadu_pd(padded.data() + 4);
    }
    const __m128i q0 = quadrants(a0, &readable);
    const __m128i q1 = quadrants(a1, &readable);
    const __m256i q = _mm256_set_m128i(q1, q0);
    sin_bits |= bit1(q) << i;
    cos_bits |= bit1(_mm256_add_epi32(q, _mm256_set1_epi32(1))) << i;
  }
  *sin_negative = sin_bits;
  *cos_negative = cos_bits;
  return _mm256_movemask_pd(readable) == 0xF;
}

void Atan2Avx2(const double* y, const double* x, double* out, int64_t n) {
  const __m256d zero = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    const __m256d vx = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(out + i, avx2::Atan2(vy, vx));
    // x == 0 lanes divide by zero inside the vector path; patch them with
    // libm so signed-zero and half-pi semantics are exact.
    const int zero_lanes =
        _mm256_movemask_pd(_mm256_cmp_pd(vx, zero, _CMP_EQ_OQ));
    if (zero_lanes != 0) {
      for (int lane = 0; lane < 4; ++lane) {
        if (zero_lanes & (1 << lane)) {
          out[i + lane] = std::atan2(y[i + lane], x[i + lane]);
        }
      }
    }
  }
  for (; i < n; ++i) out[i] = std::atan2(y[i], x[i]);
}

// Reflect-wrap four angles into [0, pi] without fmod: t - 2pi*floor(t/2pi)
// range-reduces into [0, 2pi) up to rounding, a clamp pins roundoff
// stragglers back inside the interval (so huge inputs like 1e9*pi still
// land in range), and lanes past pi reflect to 2pi - t. The division
// rounds differently from the scalar tier's fmod, so this kernel carries
// per-tier goldens like SinCos/Atan2.
__m256d WrapReflect4(__m256d t) {
  const __m256d two_pi = _mm256_set1_pd(kTwoPi);
  const __m256d whole_turns = _mm256_floor_pd(_mm256_div_pd(t, two_pi));
  t = _mm256_fnmadd_pd(whole_turns, two_pi, t);
  t = _mm256_min_pd(_mm256_max_pd(t, _mm256_setzero_pd()), two_pi);
  const __m256d reflected = _mm256_sub_pd(two_pi, t);
  const __m256d over_pi =
      _mm256_cmp_pd(t, _mm256_set1_pd(std::numbers::pi), _CMP_GT_OQ);
  return _mm256_blendv_pd(t, reflected, over_pi);
}

void WrapReflectAvx2(double* angles, int64_t n) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(angles + i, WrapReflect4(_mm256_loadu_pd(angles + i)));
  }
  if (i < n) {
    // Padded tail: same vector path as the body, so a value's rounding
    // never depends on its position relative to the tail boundary.
    std::array<double, 4> in = {0.0, 0.0, 0.0, 0.0};
    std::array<double, 4> out;
    for (int64_t t = i; t < n; ++t) in[t - i] = angles[t];
    _mm256_storeu_pd(out.data(), WrapReflect4(_mm256_loadu_pd(in.data())));
    for (int64_t t = i; t < n; ++t) angles[t] = out[t - i];
  }
}

// Box-Muller, four pairs at a time: the uniforms are drawn from the
// stream in exactly the pair order the scalar tier uses (u1 with its
// kLogFloor rejection, then u2), and the sqrt/log/sincos math runs
// vectorized. Each pair keeps the scalar ordering, radius*cos first and
// radius*sin second, interleaved in registers: first = [c0 s0 c1 s1],
// second = [c2 s2 c3 s3].
struct GaussianPairs {
  __m256d first;
  __m256d second;
};

inline GaussianPairs GaussianBatch4(Rng& stream) {
  const auto draw_pair = [&stream](double& u1, double& u2) {
    u1 = stream.Uniform();
    while (u1 <= kLogFloor) u1 = stream.Uniform();
    u2 = stream.Uniform();
  };
  double u1_0, u2_0, u1_1, u2_1, u1_2, u2_2, u1_3, u2_3;
  draw_pair(u1_0, u2_0);
  draw_pair(u1_1, u2_1);
  draw_pair(u1_2, u2_2);
  draw_pair(u1_3, u2_3);
  const __m256d radius = _mm256_sqrt_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0),
                    avx2::Log(_mm256_setr_pd(u1_0, u1_1, u1_2, u1_3))));
  __m256d vs, vc;
  avx2::SinCos(_mm256_mul_pd(_mm256_setr_pd(u2_0, u2_1, u2_2, u2_3),
                             _mm256_set1_pd(kTwoPi)),
               &vs, &vc);
  const __m256d rc = _mm256_mul_pd(radius, vc);
  const __m256d rs = _mm256_mul_pd(radius, vs);
  const __m256d even = _mm256_unpacklo_pd(rc, rs);  // c0 s0 c2 s2
  const __m256d odd = _mm256_unpackhi_pd(rc, rs);   // c1 s1 c3 s3
  return {_mm256_permute2f128_pd(even, odd, 0x20),
          _mm256_permute2f128_pd(even, odd, 0x31)};
}

// dst += float(stddev * variate): a double product rounded to float, then
// a float add, as in the scalar tier.
void GaussianAddF32Avx2(Rng& stream, double stddev, float* dst, int64_t n) {
  const __m256d scale = _mm256_set1_pd(stddev);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const GaussianPairs pairs = GaussianBatch4(stream);
    const __m256 noise = _mm256_set_m128(
        _mm256_cvtpd_ps(_mm256_mul_pd(scale, pairs.second)),
        _mm256_cvtpd_ps(_mm256_mul_pd(scale, pairs.first)));
    _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_loadu_ps(dst + i), noise));
  }
  for (; i < n; ++i) {
    dst[i] += static_cast<float>(stream.Gaussian(0.0, stddev));
  }
}

// dst = fma(stddev, variate, dst).
void GaussianAddF64Avx2(Rng& stream, double stddev, double* dst, int64_t n) {
  const __m256d scale = _mm256_set1_pd(stddev);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const GaussianPairs pairs = GaussianBatch4(stream);
    _mm256_storeu_pd(dst + i, _mm256_fmadd_pd(scale, pairs.first,
                                              _mm256_loadu_pd(dst + i)));
    _mm256_storeu_pd(dst + i + 4,
                     _mm256_fmadd_pd(scale, pairs.second,
                                     _mm256_loadu_pd(dst + i + 4)));
  }
  for (; i < n; ++i) dst[i] += stream.Gaussian(0.0, stddev);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      .add = AddAvx2,
      .axpy = AxpyAvx2,
      .scale = ScaleAvx2,
      .scale_assign = ScaleAssignAvx2,
      .sum_squares = SumSquaresAvx2,
      .sum_squares4 = SumSquares4Avx2,
      .dot = DotAvx2,
      .matmul_row_block = MatmulRowBlockAvx2,
      .transpose_tile = TransposeTileAvx2,
      .copy_runs = CopyRunsAvx2,
      .col2im = Col2ImAvx2,
      .max_pool_2x2 = MaxPool2x2Avx2,
      .sqrt_array = SqrtArrayAvx2,
      .sincos = SinCosAvx2,
      .quadrant_signs = QuadrantSignsAvx2,
      .atan2 = Atan2Avx2,
      .wrap_reflect = WrapReflectAvx2,
      .gaussian_add_f32 = GaussianAddF32Avx2,
      .gaussian_add_f64 = GaussianAddF64Avx2,
  };
  return table;
}

}  // namespace simd
}  // namespace geodp

#endif  // GEODP_SIMD_AVX2_BUILD
