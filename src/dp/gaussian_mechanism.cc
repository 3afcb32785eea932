#include "dp/gaussian_mechanism.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

double GaussianSigmaForEpsilonDelta(double epsilon, double delta) {
  GEODP_CHECK_GT(epsilon, 0.0);  // geodp: check-ok
  GEODP_CHECK(delta > 0.0 && delta < 1.0);  // geodp: check-ok
  return std::sqrt(2.0 * std::log(1.25 / delta)) / epsilon;
}

double GaussianEpsilonForSigma(double sigma, double delta) {
  GEODP_CHECK_GT(sigma, 0.0);  // geodp: check-ok
  GEODP_CHECK(delta > 0.0 && delta < 1.0);  // geodp: check-ok
  return std::sqrt(2.0 * std::log(1.25 / delta)) / sigma;
}

}  // namespace geodp
