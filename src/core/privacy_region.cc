#include "core/privacy_region.h"

#include <cmath>
#include <numbers>

#include "base/check.h"
#include "dp/gaussian_mechanism.h"

namespace geodp {

DirectionSensitivity ComputeDirectionSensitivity(int64_t dimension,
                                                 double beta) {
  GEODP_CHECK_GE(dimension, 2);
  GEODP_CHECK(beta > 0.0 && beta <= 1.0) << "beta must be in (0, 1]";
  DirectionSensitivity s;
  s.per_angle = beta * std::numbers::pi;
  s.last_angle = 2.0 * beta * std::numbers::pi;
  s.total_l2 = std::sqrt(static_cast<double>(dimension) + 2.0) * beta *
               std::numbers::pi;
  return s;
}

GeoDpPrivacyReport AnalyzeGeoDpPrivacy(double noise_multiplier, double delta,
                                       double beta) {
  GEODP_CHECK(beta > 0.0 && beta <= 1.0);
  GeoDpPrivacyReport report;
  report.epsilon = GaussianEpsilonForSigma(noise_multiplier, delta);
  report.delta = delta;
  report.delta_prime_upper_bound = 1.0 - beta;
  report.total_delta_upper_bound = delta + report.delta_prime_upper_bound;
  return report;
}

}  // namespace geodp
