// The classic Gaussian mechanism's (epsilon, delta) <-> sigma calibration
// (Dwork & Roth, Appendix A), used by the paper's sigma <-> epsilon table.

#ifndef GEODP_DP_GAUSSIAN_MECHANISM_H_
#define GEODP_DP_GAUSSIAN_MECHANISM_H_

namespace geodp {

/// The epsilon a noise multiplier sigma gives at delta under the classic
/// Gaussian-mechanism bound sigma = sqrt(2 ln(1.25/delta)) / epsilon
/// (valid for epsilon <= 1; used by the paper's sigma <-> epsilon table).
double GaussianEpsilonForSigma(double sigma, double delta);

}  // namespace geodp

#endif  // GEODP_DP_GAUSSIAN_MECHANISM_H_
