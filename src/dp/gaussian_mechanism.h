// The classic Gaussian mechanism's (epsilon, delta) <-> sigma calibration
// (Dwork & Roth, Appendix A), used by the paper's sigma <-> epsilon table.

#ifndef GEODP_DP_GAUSSIAN_MECHANISM_H_
#define GEODP_DP_GAUSSIAN_MECHANISM_H_

namespace geodp {

/// Noise multiplier sigma such that adding N(0, (sigma * sensitivity)^2)
/// noise satisfies (epsilon, delta)-DP for epsilon <= 1:
///   sigma = sqrt(2 ln(1.25/delta)) / epsilon.
/// (The classic bound; used by the paper's sigma <-> epsilon table.)
double GaussianSigmaForEpsilonDelta(double epsilon, double delta);

/// Inverse of the calibration above: the epsilon obtained from a given
/// noise multiplier at a given delta.
double GaussianEpsilonForSigma(double sigma, double delta);

}  // namespace geodp

#endif  // GEODP_DP_GAUSSIAN_MECHANISM_H_
