#include "dp/composition.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

PrivacyGuarantee BasicComposition(const PrivacyGuarantee& per_step,
                                  int64_t steps) {
  GEODP_CHECK_GE(steps, 0);  // geodp: check-ok
  return {per_step.epsilon * static_cast<double>(steps),
          per_step.delta * static_cast<double>(steps)};
}

PrivacyGuarantee AdvancedComposition(const PrivacyGuarantee& per_step,
                                     int64_t steps, double delta_slack) {
  GEODP_CHECK_GE(steps, 0);  // geodp: check-ok
  GEODP_CHECK(delta_slack > 0.0 && delta_slack < 1.0);  // geodp: check-ok
  const double k = static_cast<double>(steps);
  const double eps = per_step.epsilon;
  const double eps_total = std::sqrt(2.0 * k * std::log(1.0 / delta_slack)) *
                               eps +
                           k * eps * (std::exp(eps) - 1.0);
  return {eps_total, k * per_step.delta + delta_slack};
}

}  // namespace geodp
