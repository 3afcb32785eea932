// Arch-dispatched numeric microkernels: the single place where the
// library's hot loops (matmul, clip-accumulate, Box-Muller noise,
// the spherical transforms of Eq. 24-27) touch raw arrays.
//
// Every kernel dispatches through the tier selected in base/simd/dispatch.h
// (scalar reference, or AVX2/FMA when the host supports it) at block
// granularity, so the indirect call is amortized over hundreds of
// elements. The scalar tier reproduces the historical element loops
// bit-for-bit; the AVX2 tier may round differently (FMA contraction,
// polynomial transcendentals) but is equally deterministic — see
// docs/simd.md for the per-tier golden contract.
//
// Callers own all parallelism: kernels are plain serial block functions
// invoked from inside ParallelFor chunks, and they never touch the
// thread pool, the heap, or global state.

#ifndef GEODP_BASE_SIMD_KERNELS_H_
#define GEODP_BASE_SIMD_KERNELS_H_

#include <array>
#include <cstdint>

#include "base/rng.h"

namespace geodp {
namespace simd {

/// y[0..n) += x[0..n).
void Add(float* y, const float* x, int64_t n);

/// y[0..n) += alpha * x[0..n).
void Axpy(float* y, const float* x, float alpha, int64_t n);

/// x[0..n) *= factor.
void Scale(float* x, float factor, int64_t n);

/// dst[0..n) = scale * per_sample_grad[0..n). Seeds a clip-accumulate
/// partial sum from the chunk's first sample without a zero-fill pass;
/// the per-sample input is consumed here under the clip boundary's scale
/// (geodp_lint R2 audit).
// geodp: per-sample scaled transport into the chunk partial, clipped by scale
void ClipScaleAssign(float* dst, const float* per_sample_grad, float scale,
                     int64_t n);

/// acc[0..n) += scale * per_sample_grad[0..n): the fused clip-accumulate
/// step. The scale comes from Clipper::ClipScale, so the contribution's
/// L2 norm is already bounded by the sensitivity threshold.
// geodp: per-sample fused clip-and-accumulate, sensitivity bounded by scale
void ClipAxpy(float* acc, const float* per_sample_grad, float scale,
              int64_t n);

/// Sum of x[i]^2 accumulated in double precision.
double SumSquares(const float* x, int64_t n);

/// SumSquares of four arrays of n floats each, bit for bit: four
/// independent chains, each with SumSquares' association on the active
/// tier, run side by side so that their latencies overlap.
std::array<double, 4> SumSquares4(const std::array<const float*, 4>& x,
                                  int64_t n);

/// Dot product accumulated in double precision.
double Dot(const float* a, const float* b, int64_t n);

/// Rows [row_begin, row_end) of out = a · b for row-major a [m, k] and
/// b [k, n]; the old contents of those rows are never read. Each element
/// is the chain of products accumulated onto +0 with k increasing, so the
/// association is fixed by the kernel, not by the thread count; the k
/// dimension is tiled so the active slice of b stays cache-resident.
void MatmulRowBlock(const float* a, const float* b, float* out,
                    int64_t row_begin, int64_t row_end, int64_t k, int64_t n);

/// dst[j * dst_stride + i] = src[i * src_stride + j] for i < rows and
/// j < cols: one cache block of a transpose. An exact copy on every tier.
void TransposeTile(const float* src, int64_t src_stride, float* dst,
                   int64_t dst_stride, int64_t rows, int64_t cols);

/// Copies `runs` runs of n floats, run r from src + r * src_stride to
/// dst + r * dst_stride. Source and destination must not overlap. An
/// exact copy on every tier; the AVX2 tier's last vector of a run
/// overlaps the one before it instead of taking a scalar tail.
void CopyRuns(const float* src, int64_t src_stride, float* dst,
              int64_t dst_stride, int64_t runs, int64_t n);

/// Folds columns [C*K*K, OH*OW], a stride-1 KxK unfold with symmetric zero
/// padding, back onto image [C, H, W] (the nn/im2col.h Col2ImInto
/// contract): each image element receives its in-bounds contributions one
/// rounded add at a time, in (kh, kw) order. Identical on every tier.
void Col2Im(const float* columns, int64_t channels, int64_t height,
            int64_t width, int64_t kernel_size, int64_t padding,
            float* image);

/// Non-overlapping 2x2 max pooling of `planes` contiguous planes of
/// [2 * out_h, 2 * out_w] floats into [planes, out_h, out_w]. Each window
/// is visited in row-major order: its first element seeds the max and
/// only a strictly greater one replaces it (an ordered compare, so a NaN
/// never replaces and a leading NaN is kept). argmax receives the flat
/// index into x of each output's element. Requires 2 * out_w < 2^31.
/// Identical on every tier.
void MaxPool2x2(const float* x, int64_t planes, int64_t out_h,
                int64_t out_w, float* out, int64_t* argmax);

/// out[i] = sqrt(x[i]). sqrt is correctly rounded on every tier, so this
/// kernel is bit-identical across tiers.
void SqrtArray(const double* x, double* out, int64_t n);

/// sin_out[i] = sin(angles[i]), cos_out[i] = cos(angles[i]).
void SinCos(const double* angles, double* sin_out, double* cos_out,
            int64_t n);

/// out[i] = atan2(y[i], x[i]) with the usual quadrant conventions.
void Atan2(const double* y, const double* x, double* out, int64_t n);

/// Reflect-wraps angles[0..n) in place into [0, pi] — the canonical range
/// of every non-final hyper-spherical angle. The scalar tier keeps the
/// historical fmod loop bit-for-bit; the AVX2 tier range-reduces with a
/// floor-based division instead of fmod and may differ in the last bits,
/// but both tiers guarantee results land inside [0, pi] (per-tier golden
/// contract, like SinCos/Atan2).
void WrapReflect(double* angles, int64_t n);

/// dst[0..n) += N(0, stddev^2) variates drawn from `stream` by the
/// Box-Muller transform. The scalar tier consumes the stream exactly like
/// n calls of Rng::Gaussian(0, stddev) on a fresh stream; the AVX2 tier
/// draws the same uniforms pairwise and batches the sqrt/log/sincos math.
void GaussianAdd(Rng& stream, double stddev, float* dst, int64_t n);
void GaussianAdd(Rng& stream, double stddev, double* dst, int64_t n);

}  // namespace simd
}  // namespace geodp

#endif  // GEODP_BASE_SIMD_KERNELS_H_
