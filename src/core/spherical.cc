#include "core/spherical.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "base/thread_pool.h"

namespace geodp {
namespace {

// Elements per block of the blocked spherical passes. Two stack buffers of
// 512 doubles (8 KB) stay in L1. A multiple of 4, so block edges are AVX2
// lane-group edges and exactly the elements of one unblocked call reach
// Atan2's n % 4 libm remainder.
constexpr int64_t kSphericalBlock = 512;
static_assert(kSphericalBlock % 4 == 0);

// Half the smallest positive float denormal: a double of at most this
// magnitude rounds (to nearest, ties to even) to a float zero of its sign.
constexpr double kFloatZeroBound = 0x1p-150;

}  // namespace

SphericalCoordinates ToSpherical(const Tensor& g) {
  GEODP_CHECK_EQ(g.ndim(), 1);
  const int64_t d = g.dim(0);
  GEODP_CHECK_GE(d, 2) << "spherical coordinates need dimension >= 2";

  SphericalCoordinates coords;
  coords.angles.assign(static_cast<size_t>(d - 1), 0.0);
  double* angles = coords.angles.data();
  const float* x = g.data();

  // Suffix sums of squares g_{z+1}^2 + ... + g_{d-1}^2 (0-based), written
  // into the angle slots whose atan2 will replace them. They accumulate
  // serially back-to-front, for stability and the historical rounding
  // order.
  double sum_sq = 0.0;
  for (int64_t z = d - 1; z >= 0; --z) {
    if (z < d - 2) angles[z] = sum_sq;
    sum_sq += static_cast<double>(x[z]) * static_cast<double>(x[z]);
  }
  coords.magnitude = std::sqrt(sum_sq);
  if (coords.magnitude == 0.0) return coords;  // every suffix sum is +0

  // theta_z = atan2(sqrt(suffix sum), g_z), block by block in place.
  ParallelFor(0, d - 2, kSphericalBlock, [&](int64_t lo, int64_t hi) {
    std::array<double, kSphericalBlock> tail{};
    std::array<double, kSphericalBlock> head{};
    const int64_t n = hi - lo;
    simd::SqrtArray(angles + lo, tail.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      head[static_cast<size_t>(i)] = static_cast<double>(x[lo + i]);
    }
    simd::Atan2(tail.data(), head.data(), angles + lo, n);
  });
  angles[d - 2] =
      std::atan2(static_cast<double>(x[d - 1]), static_cast<double>(x[d - 2]));
  return coords;
}

Tensor ToCartesian(const SphericalCoordinates& coords) {
  const int64_t d = coords.CartesianDim();
  GEODP_CHECK_GE(d, 2);
  Tensor g({d});
  float* out = g.data();
  const double* angles = coords.angles.data();
  // Prefix product of sines in the historical multiplication order, over
  // per-block sin/cos. Once |magnitude * sin_product| <= kFloatZeroBound
  // every later coordinate rounds to a float zero (|sin|, |cos| <= 1, so
  // rounding can only shrink it), so the rest of the vector carries just
  // that product's signed zero: multiplying it by each cos and sin gives
  // the historical sign (and NaN on a NaN angle) without denormal
  // arithmetic. See docs/geometry.md.
  double sin_product = 1.0;  // sin(theta_1) * ... * sin(theta_{z-1})
  double tail_zero = 0.0;
  bool in_tail = false;
  std::array<double, kSphericalBlock> sins{};
  std::array<double, kSphericalBlock> coss{};
  for (int64_t lo = 0; lo < d - 1; lo += kSphericalBlock) {
    const int64_t n = std::min(kSphericalBlock, d - 1 - lo);
    simd::SinCos(angles + lo, sins.data(), coss.data(), n);
    int64_t i = 0;
    for (; !in_tail && i < n; ++i) {
      const double head = coords.magnitude * sin_product;
      if (std::fabs(head) <= kFloatZeroBound) {
        tail_zero = std::copysign(0.0, head);
        in_tail = true;
        break;
      }
      out[lo + i] = static_cast<float>(head * coss[static_cast<size_t>(i)]);
      sin_product *= sins[static_cast<size_t>(i)];
    }
    for (; i < n; ++i) {
      out[lo + i] =
          static_cast<float>(tail_zero * coss[static_cast<size_t>(i)]);
      tail_zero *= sins[static_cast<size_t>(i)];
    }
  }
  out[d - 1] = static_cast<float>(in_tail ? tail_zero
                                          : coords.magnitude * sin_product);
  return g;
}

std::vector<SphericalCoordinates> BatchToSpherical(
    const std::vector<Tensor>& gradients) {
  std::vector<SphericalCoordinates> coords(gradients.size());
  ParallelFor(0, static_cast<int64_t>(gradients.size()), /*grain=*/1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  coords[static_cast<size_t>(i)] =
                      ToSpherical(gradients[static_cast<size_t>(i)]);
                }
              });
  return coords;
}

std::vector<Tensor> BatchToCartesian(
    const std::vector<SphericalCoordinates>& coords) {
  std::vector<Tensor> gradients(coords.size());
  ParallelFor(0, static_cast<int64_t>(coords.size()), /*grain=*/1,
              [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i) {
                  gradients[static_cast<size_t>(i)] =
                      ToCartesian(coords[static_cast<size_t>(i)]);
                }
              });
  return gradients;
}

double AngleSquaredDistance(const std::vector<double>& a,
                            const std::vector<double>& b) {
  GEODP_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return sum;
}

std::vector<double> WrapAngles(std::vector<double> angles) {
  const size_t n = angles.size();
  if (n == 0) return angles;
  // The first n-1 angles reflect into [0, pi] (half-plane directions)
  // through the dispatched kernel: the scalar tier keeps the historical
  // fmod loop bit-for-bit, the AVX2 tier uses a floor-based reduction.
  simd::WrapReflect(angles.data(), static_cast<int64_t>(n) - 1);
  // The final azimuthal angle wraps into (-pi, pi].
  using std::numbers::pi;
  double theta = std::fmod(angles[n - 1] + pi, 2.0 * pi);
  if (theta <= 0) theta += 2.0 * pi;
  angles[n - 1] = theta - pi;
  return angles;
}

std::vector<double> ClampAngles(std::vector<double> angles) {
  const size_t n = angles.size();
  for (size_t i = 0; i < n; ++i) {
    const double lo = (i + 1 < n) ? 0.0 : -std::numbers::pi;
    const double hi = std::numbers::pi;
    if (angles[i] < lo) angles[i] = lo;
    if (angles[i] > hi) angles[i] = hi;
  }
  return angles;
}

}  // namespace geodp
