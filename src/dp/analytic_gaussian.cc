#include "dp/analytic_gaussian.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

double StandardNormalCdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double AnalyticGaussianDelta(double sigma, double epsilon) {
  // Documented preconditions of a pure math helper; the Status-returning
  // entry points validate user input before reaching this.
  GEODP_CHECK_GT(sigma, 0.0);      // geodp: check-ok
  GEODP_CHECK_GT(epsilon, 0.0);    // geodp: check-ok
  const double a = 1.0 / (2.0 * sigma);
  return StandardNormalCdf(a - epsilon * sigma) -
         std::exp(epsilon) * StandardNormalCdf(-a - epsilon * sigma);
}

}  // namespace geodp
