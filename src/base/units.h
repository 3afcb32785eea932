// Strong typedefs for the privacy-critical double parameters that travel
// together through the clipping and calibration APIs. A clip threshold C,
// a noise multiplier sigma and an L2 sensitivity are all "just doubles",
// and every transposition of one for another is a silent privacy bug (these
// types let .clang-tidy keep bugprone-easily-swappable-parameters on). Each
// wrapper is an explicit single-value type: construction names the unit at
// the call site and `.value()` unwraps it where the arithmetic happens.
//
// These are deliberately minimal — no arithmetic operators, no implicit
// conversions — because the point is to force the caller to say which
// quantity a literal is, not to build a units system.

#ifndef GEODP_BASE_UNITS_H_
#define GEODP_BASE_UNITS_H_

namespace geodp {
namespace internal {

// One tagged wrapper per unit; the Tag type only disambiguates overloads.
template <typename Tag>
class UnitDouble {
 public:
  explicit constexpr UnitDouble(double value) : value_(value) {}
  constexpr double value() const { return value_; }

 private:
  double value_;
};

}  // namespace internal

/// L2 clip threshold C: the per-sample sensitivity bound every Clipper
/// guarantees (paper Eq. 6).
using ClipThreshold = internal::UnitDouble<struct ClipThresholdTag>;

/// Noise multiplier sigma: noise stddev per unit of sensitivity.
using NoiseMultiplier = internal::UnitDouble<struct NoiseMultiplierTag>;

/// Privacy budget epsilon of an (epsilon, delta)-DP guarantee. Used where
/// epsilon is an *input* (a target budget, a recorded Laplace spend);
/// computed epsilons stay plain doubles.
using Epsilon = internal::UnitDouble<struct EpsilonTag>;

/// Failure probability delta of an (epsilon, delta)-DP guarantee. Delta
/// and epsilon ride through every accounting call together, and both are
/// small dimensionless doubles — exactly the transposition this header
/// exists to make un-compilable.
using Delta = internal::UnitDouble<struct DeltaTag>;

/// Poisson sampling rate q = batch_size / dataset_size in (0, 1].
using SamplingRate = internal::UnitDouble<struct SamplingRateTag>;

}  // namespace geodp

#endif  // GEODP_BASE_UNITS_H_
