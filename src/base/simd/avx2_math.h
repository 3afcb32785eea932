// Vectorized double-precision log / sincos / atan2 for the AVX2 kernel
// tier, following the classic Cephes algorithms (Moshier, netlib cephes;
// the same rational approximations libm derives from). Accuracy is a few
// ulp over the argument ranges the kernels feed in (|x| < ~16 for the
// trig reductions, (0, 1) for log), which is far inside every consumer's
// tolerance; results differ from libm in the last bits, which is why the
// AVX2 tier pins its own goldens.
//
// Only kernels_avx2.cc may include this header: it requires -mavx2 -mfma.

#ifndef GEODP_BASE_SIMD_AVX2_MATH_H_
#define GEODP_BASE_SIMD_AVX2_MATH_H_

#include <immintrin.h>

#include <array>
#include <numbers>

namespace geodp {
namespace simd {
namespace avx2 {

// Horner evaluation of c[0]*x^5 + ... + c[5] (Cephes polevl, degree 5).
inline __m256d Polevl5(__m256d x, const std::array<double, 6>& c) {
  __m256d y = _mm256_set1_pd(c[0]);
  for (int i = 1; i < 6; ++i) {
    y = _mm256_fmadd_pd(y, x, _mm256_set1_pd(c[i]));
  }
  return y;
}

// Horner evaluation of x^5 + c[0]*x^4 + ... + c[4] (Cephes p1evl: leading
// coefficient 1 is implicit).
inline __m256d P1evl5(__m256d x, const std::array<double, 5>& c) {
  __m256d y = _mm256_add_pd(x, _mm256_set1_pd(c[0]));
  for (int i = 1; i < 5; ++i) {
    y = _mm256_fmadd_pd(y, x, _mm256_set1_pd(c[i]));
  }
  return y;
}

// Degree-4 polevl used by atan.
inline __m256d Polevl4(__m256d x, const std::array<double, 5>& c) {
  __m256d y = _mm256_set1_pd(c[0]);
  for (int i = 1; i < 5; ++i) {
    y = _mm256_fmadd_pd(y, x, _mm256_set1_pd(c[i]));
  }
  return y;
}

// Packs the low 32 bits of each 64-bit lane into a __m128i.
inline __m128i PackLow32(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  return _mm_castps_si128(_mm_shuffle_ps(_mm_castsi128_ps(lo),
                                         _mm_castsi128_ps(hi),
                                         _MM_SHUFFLE(2, 0, 2, 0)));
}

// Natural log for normal positive inputs (Cephes log.c, rational branch).
inline __m256d Log(__m256d x) {
  static constexpr std::array<double, 6> kLogP = {
      1.01875663804580931796E-4, 4.97494994976747001425E-1,
      4.70579119878881725854E0,  1.44989225341610930846E1,
      1.79368678507819816313E1,  7.70838733755885391666E0,
  };
  static constexpr std::array<double, 5> kLogQ = {
      1.12873587189167450590E1, 4.52279145837532221105E1,
      8.29875266912776603211E1, 7.11544750618563894466E1,
      2.31251620126765340583E1,
  };
  const __m256d one = _mm256_set1_pd(1.0);

  // frexp: split into mantissa m in [0.5, 1) and integral exponent e.
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i expo_bits = _mm256_srli_epi64(bits, 52);
  __m256d e = _mm256_sub_pd(_mm256_cvtepi32_pd(PackLow32(expo_bits)),
                            _mm256_set1_pd(1022.0));
  const __m256i mant_bits = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FE0000000000000LL));
  __m256d m = _mm256_castsi256_pd(mant_bits);

  // m < sqrt(1/2): use 2m - 1 and drop the exponent by one, else m - 1.
  const __m256d below = _mm256_cmp_pd(
      m, _mm256_set1_pd(0.70710678118654752440), _CMP_LT_OQ);
  e = _mm256_add_pd(e, _mm256_and_pd(below, _mm256_set1_pd(-1.0)));
  __m256d xm = _mm256_sub_pd(m, one);
  xm = _mm256_add_pd(xm, _mm256_and_pd(below, m));

  const __m256d z = _mm256_mul_pd(xm, xm);
  __m256d y = _mm256_mul_pd(
      xm, _mm256_div_pd(_mm256_mul_pd(z, Polevl5(xm, kLogP)),
                        P1evl5(xm, kLogQ)));
  // ln 2 split into an exact high part and a small correction so the
  // e * ln2 term loses no precision.
  y = _mm256_fnmadd_pd(e, _mm256_set1_pd(2.121944400546905827679E-4), y);
  y = _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, y);
  __m256d r = _mm256_add_pd(xm, y);
  r = _mm256_fmadd_pd(e, _mm256_set1_pd(0.693359375), r);
  return r;
}

// Simultaneous sin and cos (Cephes sin.c reduction with the sincos lane
// selection of the classic sse_mathfun routine, in double precision).
inline void SinCos(__m256d x, __m256d* sin_out, __m256d* cos_out) {
  static constexpr std::array<double, 6> kSinCof = {
      1.58962301576546568060E-10, -2.50507477628578072866E-8,
      2.75573136213857245213E-6,  -1.98412698295895385996E-4,
      8.33333333332211858878E-3,  -1.66666666666666307295E-1,
  };
  static constexpr std::array<double, 6> kCosCof = {
      -1.13585365213876817300E-11, 2.08757008419747316778E-9,
      -2.75573141792967388112E-7,  2.48015872888517179954E-5,
      -1.38888888888730564116E-3,  4.16666666666665929218E-2,
  };
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);

  const __m256d x_sign = _mm256_and_pd(x, sign_mask);
  __m256d xa = _mm256_andnot_pd(sign_mask, x);

  // j = nearest multiple-of-two octant of x / (pi/4).
  __m256d y = _mm256_floor_pd(
      _mm256_mul_pd(xa, _mm256_set1_pd(1.27323954473516268615)));  // 4/pi
  __m128i j32 = _mm256_cvttpd_epi32(y);
  j32 = _mm_and_si128(_mm_add_epi32(j32, _mm_set1_epi32(1)),
                      _mm_set1_epi32(~1));
  y = _mm256_cvtepi32_pd(j32);
  const __m256i j = _mm256_cvtepi32_epi64(j32);

  // sin flips sign in octants 4..7; cos in octants 2..5.
  const __m256d swap_sign_sin = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(j, _mm256_set1_epi64x(4)), 61));
  const __m256d sign_cos = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_andnot_si256(_mm256_sub_epi64(j, _mm256_set1_epi64x(2)),
                          _mm256_set1_epi64x(4)),
      61));
  // Octants 0 and 4 keep the sine polynomial for sin (and cosine for cos).
  const __m256d poly_mask = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(j, _mm256_set1_epi64x(2)), _mm256_setzero_si256()));

  // Extended-precision argument reduction (Cody-Waite, three parts).
  xa = _mm256_fnmadd_pd(y, _mm256_set1_pd(7.85398125648498535156E-1), xa);
  xa = _mm256_fnmadd_pd(y, _mm256_set1_pd(3.77489470793079817668E-8), xa);
  xa = _mm256_fnmadd_pd(y, _mm256_set1_pd(2.69515142907905952645E-15), xa);

  const __m256d z = _mm256_mul_pd(xa, xa);
  // Sine polynomial: x + x z P(z).
  const __m256d poly_sin =
      _mm256_fmadd_pd(_mm256_mul_pd(z, Polevl5(z, kSinCof)), xa, xa);
  // Cosine polynomial: 1 - z/2 + z^2 P(z).
  const __m256d poly_cos = _mm256_fmadd_pd(
      _mm256_mul_pd(z, z), Polevl5(z, kCosCof),
      _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, one));

  const __m256d sin_mag = _mm256_blendv_pd(poly_cos, poly_sin, poly_mask);
  const __m256d cos_mag = _mm256_blendv_pd(poly_sin, poly_cos, poly_mask);
  *sin_out = _mm256_xor_pd(sin_mag, _mm256_xor_pd(swap_sign_sin, x_sign));
  *cos_out = _mm256_xor_pd(cos_mag, sign_cos);
}

// Arctangent (Cephes atan.c).
inline __m256d Atan(__m256d x) {
  static constexpr std::array<double, 5> kAtanP = {
      -8.750608600031904122785E-1, -1.615753718733365076637E1,
      -7.500855792314704667340E1,  -1.228866684490136173410E2,
      -6.485021904942025371773E1,
  };
  static constexpr std::array<double, 5> kAtanQ = {
      2.485846490142306297962E1, 1.650270098316988542046E2,
      4.328810604912902668951E2, 4.853903996359136964868E2,
      1.945506571482613964425E2,
  };
  constexpr double kMoreBits = 6.123233995736765886130E-17;
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);

  const __m256d x_sign = _mm256_and_pd(x, sign_mask);
  const __m256d xa = _mm256_andnot_pd(sign_mask, x);

  // Range reduction: tan(3 pi / 8) and 0.66 split the argument into the
  // three Cephes branches, folded here into lane blends.
  const __m256d big =
      _mm256_cmp_pd(xa, _mm256_set1_pd(2.41421356237309504880), _CMP_GT_OQ);
  const __m256d mid = _mm256_andnot_pd(
      big, _mm256_cmp_pd(xa, _mm256_set1_pd(0.66), _CMP_GT_OQ));

  const __m256d x_big = _mm256_div_pd(_mm256_set1_pd(-1.0), xa);
  const __m256d x_mid = _mm256_div_pd(_mm256_sub_pd(xa, one),
                                      _mm256_add_pd(xa, one));
  __m256d xr = _mm256_blendv_pd(xa, x_mid, mid);
  xr = _mm256_blendv_pd(xr, x_big, big);

  __m256d base = _mm256_and_pd(
      big, _mm256_set1_pd(1.57079632679489661923));  // pi/2
  base = _mm256_or_pd(
      base,
      _mm256_and_pd(mid, _mm256_set1_pd(7.85398163397448309616E-1)));
  __m256d extra = _mm256_and_pd(big, _mm256_set1_pd(kMoreBits));
  extra = _mm256_or_pd(extra,
                       _mm256_and_pd(mid, _mm256_set1_pd(0.5 * kMoreBits)));

  const __m256d z = _mm256_mul_pd(xr, xr);
  __m256d p = _mm256_mul_pd(
      z, _mm256_div_pd(Polevl4(z, kAtanP), P1evl5(z, kAtanQ)));
  p = _mm256_fmadd_pd(xr, p, xr);
  p = _mm256_add_pd(p, extra);
  return _mm256_xor_pd(_mm256_add_pd(base, p), x_sign);
}

// Four-quadrant arctangent. Lanes with x == 0 are NOT handled here (the
// division below yields inf/nan); kernels_avx2.cc patches those lanes with
// std::atan2 so signed-zero semantics match libm exactly.
inline __m256d Atan2(__m256d y, __m256d x) {
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  const __m256d q = Atan(_mm256_div_pd(y, x));
  // Left half-plane: shift by +/- pi with the sign of y.
  const __m256d x_neg = _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ);
  const __m256d pi_signed = _mm256_or_pd(
      _mm256_set1_pd(std::numbers::pi), _mm256_and_pd(y, sign_mask));
  return _mm256_add_pd(_mm256_and_pd(x_neg, pi_signed), q);
}

}  // namespace avx2
}  // namespace simd
}  // namespace geodp

#endif  // GEODP_BASE_SIMD_AVX2_MATH_H_
