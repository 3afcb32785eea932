// Analytic Gaussian mechanism (Balle & Wang, ICML 2018): the *exact*
// delta of Gaussian noise at a given epsilon, valid for every epsilon > 0
// (the classic sqrt(2 ln(1.25/delta))/epsilon bound requires epsilon <= 1
// and is loose). The CLI's privacy report prints it next to the classic
// calibration.

#ifndef GEODP_DP_ANALYTIC_GAUSSIAN_H_
#define GEODP_DP_ANALYTIC_GAUSSIAN_H_

namespace geodp {

/// Standard normal CDF Phi(x).
double StandardNormalCdf(double x);

/// The exact delta achieved by a Gaussian mechanism with noise multiplier
/// sigma (sensitivity 1) at privacy parameter epsilon:
///   delta = Phi(1/(2 sigma) - eps*sigma) - e^eps * Phi(-1/(2 sigma) - eps*sigma).
/// Precondition (checked): sigma > 0 and epsilon > 0.
double AnalyticGaussianDelta(double sigma, double epsilon);

}  // namespace geodp

#endif  // GEODP_DP_ANALYTIC_GAUSSIAN_H_
