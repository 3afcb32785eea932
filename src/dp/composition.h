// Composition theorems for (epsilon, delta)-DP: basic and advanced (strong)
// composition. Used to account for multi-iteration training when the RDP
// accountant is not in play, and as a cross-check against it.

#ifndef GEODP_DP_COMPOSITION_H_
#define GEODP_DP_COMPOSITION_H_

#include <cstdint>

namespace geodp {

/// A single (epsilon, delta)-DP guarantee.
struct PrivacyGuarantee {
  double epsilon = 0.0;
  double delta = 0.0;
};

/// Basic (sequential) composition of k identical releases:
/// (k*eps, k*delta)-DP.
PrivacyGuarantee BasicComposition(const PrivacyGuarantee& per_step,
                                  int64_t steps);

/// Advanced composition (Dwork, Rothblum, Vadhan): k releases of
/// (eps, delta)-DP satisfy (eps', k*delta + delta_slack)-DP with
///   eps' = sqrt(2 k ln(1/delta_slack)) * eps + k * eps * (e^eps - 1).
PrivacyGuarantee AdvancedComposition(const PrivacyGuarantee& per_step,
                                     int64_t steps, double delta_slack);

}  // namespace geodp

#endif  // GEODP_DP_COMPOSITION_H_
