// Internal: per-tier kernel implementations and the dispatch table glue
// between kernels.cc (the public API), kernels_scalar.cc and
// kernels_avx2.cc. Not for inclusion outside src/base/simd/.

#ifndef GEODP_BASE_SIMD_KERNELS_IMPL_H_
#define GEODP_BASE_SIMD_KERNELS_IMPL_H_

#include <array>
#include <cstdint>

#include "base/rng.h"

namespace geodp {
namespace simd {

// One function pointer per kernel; kernels.cc selects the table for the
// active tier once per public call and forwards, so adding a tier is one
// new table, not a switch in every kernel.
struct KernelTable {
  void (*add)(float*, const float*, int64_t);
  void (*axpy)(float*, const float*, float, int64_t);
  void (*scale)(float*, float, int64_t);
  void (*scale_assign)(float*, const float*, float, int64_t);
  double (*sum_squares)(const float*, int64_t);
  std::array<double, 4> (*sum_squares4)(const std::array<const float*, 4>&,
                                         int64_t);
  double (*dot)(const float*, const float*, int64_t);
  void (*matmul_row_block)(const float*, const float*, float*, int64_t,
                           int64_t, int64_t, int64_t);
  void (*transpose_tile)(const float*, int64_t, float*, int64_t, int64_t,
                         int64_t);
  void (*copy_runs)(const float*, int64_t, float*, int64_t, int64_t,
                    int64_t);
  void (*col2im)(const float*, int64_t, int64_t, int64_t, int64_t, int64_t,
                 float*);
  void (*max_pool_2x2)(const float*, int64_t, int64_t, int64_t, float*,
                       int64_t*);
  void (*sqrt_array)(const double*, double*, int64_t);
  void (*sincos)(const double*, double*, double*, int64_t);
  bool (*quadrant_signs)(const double*, int64_t, uint64_t*, uint64_t*);
  void (*atan2)(const double*, const double*, double*, int64_t);
  void (*wrap_reflect)(double*, int64_t);
  void (*gaussian_add_f32)(Rng&, double, float*, int64_t);
  void (*gaussian_add_f64)(Rng&, double, double*, int64_t);
};

// k-dimension tile shared by every matmul tier (the historical
// kMatmulKTile from tensor_ops.cc): fixes the accumulation association
// per tier independently of the caller.
inline constexpr int64_t kMatmulKTile = 64;

/// Scalar reference tier (kernels_scalar.cc). Reproduces the historical
/// element loops bit-for-bit.
const KernelTable& ScalarKernels();

#if defined(GEODP_SIMD_AVX2_BUILD)
/// AVX2/FMA tier (kernels_avx2.cc, compiled with -mavx2 -mfma). Only
/// dispatched to after cpuid confirms the host supports it.
const KernelTable& Avx2Kernels();
#endif

}  // namespace simd
}  // namespace geodp

#endif  // GEODP_BASE_SIMD_KERNELS_IMPL_H_
