// Perturbation-method selection shared by the trainer and the benches.

#ifndef GEODP_OPTIM_GEODP_SGD_H_
#define GEODP_OPTIM_GEODP_SGD_H_

#include <memory>
#include <string>

#include "core/perturbation.h"

namespace geodp {

/// Which noise is applied to the averaged clipped gradient.
enum class PerturbationMethod {
  kNoiseFree,  // no noise (non-private SGD on clipped gradients)
  kDp,         // traditional DP-SGD (paper Eq. 8)
  kGeoDp,      // geometric perturbation (paper Algorithm 1)
};

/// Parses "none" / "dp" / "geodp" (case-sensitive).
PerturbationMethod ParsePerturbationMethod(const std::string& name);

/// Display name of a method.
std::string PerturbationMethodName(PerturbationMethod method);

/// Pass-through perturber used for the noise-free baseline.
class IdentityPerturber : public Perturber {
 public:
  IdentityPerturber() = default;

  Tensor Perturb(const Tensor& avg_clipped_gradient,
                 Rng& rng) const override;
  std::string name() const override { return "none"; }
};

/// Builds the perturber for a method. `beta` and `angle_handling` only
/// apply to GeoDP.
std::unique_ptr<Perturber> MakePerturberForMethod(
    PerturbationMethod method, const PerturbationOptions& base, double beta,
    AngleHandling angle_handling = AngleHandling::kNone);

}  // namespace geodp

#endif  // GEODP_OPTIM_GEODP_SGD_H_
