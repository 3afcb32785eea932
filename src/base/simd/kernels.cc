#include "base/simd/kernels.h"

#include "base/simd/dispatch.h"
#include "base/simd/kernels_impl.h"

namespace geodp {
namespace simd {
namespace {

const KernelTable& ActiveKernels() {
#if defined(GEODP_SIMD_AVX2_BUILD)
  if (ActiveSimdTier() == SimdTier::kAvx2) return Avx2Kernels();
#endif
  return ScalarKernels();
}

}  // namespace

void Add(float* y, const float* x, int64_t n) { ActiveKernels().add(y, x, n); }

void Axpy(float* y, const float* x, float alpha, int64_t n) {
  ActiveKernels().axpy(y, x, alpha, n);
}

void Scale(float* x, float factor, int64_t n) {
  ActiveKernels().scale(x, factor, n);
}

// geodp: per-sample seeded into the chunk partial at the clipped scale
void ClipScaleAssign(float* dst, const float* per_sample_grad, float scale,
                     int64_t n) {
  // geodp: per-sample forwarded to the active tier at the clipped scale
  ActiveKernels().scale_assign(dst, per_sample_grad, scale, n);
}

// geodp: per-sample fused clip-and-accumulate entry point
void ClipAxpy(float* acc, const float* per_sample_grad, float scale,
              int64_t n) {
  // geodp: per-sample forwarded to the active tier at the clipped scale
  ActiveKernels().axpy(acc, per_sample_grad, scale, n);
}

double SumSquares(const float* x, int64_t n) {
  return ActiveKernels().sum_squares(x, n);
}

std::array<double, 4> SumSquares4(const std::array<const float*, 4>& x,
                                  int64_t n) {
  return ActiveKernels().sum_squares4(x, n);
}

double Dot(const float* a, const float* b, int64_t n) {
  return ActiveKernels().dot(a, b, n);
}

void MatmulRowBlock(const float* a, const float* b, float* out,
                    int64_t row_begin, int64_t row_end, int64_t k,
                    int64_t n) {
  ActiveKernels().matmul_row_block(a, b, out, row_begin, row_end, k, n);
}

void TransposeTile(const float* src, int64_t src_stride, float* dst,
                   int64_t dst_stride, int64_t rows, int64_t cols) {
  ActiveKernels().transpose_tile(src, src_stride, dst, dst_stride, rows,
                                 cols);
}

void CopyRuns(const float* src, int64_t src_stride, float* dst,
              int64_t dst_stride, int64_t runs, int64_t n) {
  ActiveKernels().copy_runs(src, src_stride, dst, dst_stride, runs, n);
}

void Col2Im(const float* columns, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_size, int64_t padding,
            float* image) {
  ActiveKernels().col2im(columns, channels, height, width, kernel_size,
                         padding, image);
}

void MaxPool2x2(const float* x, int64_t planes, int64_t out_h,
                int64_t out_w, float* out, int64_t* argmax) {
  ActiveKernels().max_pool_2x2(x, planes, out_h, out_w, out, argmax);
}

void SqrtArray(const double* x, double* out, int64_t n) {
  ActiveKernels().sqrt_array(x, out, n);
}

void SinCos(const double* angles, double* sin_out, double* cos_out,
            int64_t n) {
  ActiveKernels().sincos(angles, sin_out, cos_out, n);
}

bool QuadrantSigns(const double* angles, int64_t n, uint64_t* sin_negative,
                   uint64_t* cos_negative) {
  return ActiveKernels().quadrant_signs(angles, n, sin_negative,
                                        cos_negative);
}

void Atan2(const double* y, const double* x, double* out, int64_t n) {
  ActiveKernels().atan2(y, x, out, n);
}

void WrapReflect(double* angles, int64_t n) {
  ActiveKernels().wrap_reflect(angles, n);
}

void GaussianAdd(Rng& stream, double stddev, float* dst, int64_t n) {
  ActiveKernels().gaussian_add_f32(stream, stddev, dst, n);
}

void GaussianAdd(Rng& stream, double stddev, double* dst, int64_t n) {
  ActiveKernels().gaussian_add_f64(stream, stddev, dst, n);
}

}  // namespace simd
}  // namespace geodp
