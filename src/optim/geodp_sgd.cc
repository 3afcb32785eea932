#include "optim/geodp_sgd.h"

#include "base/check.h"

namespace geodp {

PerturbationMethod ParsePerturbationMethod(const std::string& name) {
  if (name == "none") return PerturbationMethod::kNoiseFree;
  if (name == "dp") return PerturbationMethod::kDp;
  if (name == "geodp") return PerturbationMethod::kGeoDp;
  GEODP_CHECK(false) << "unknown perturbation method: " << name;
  return PerturbationMethod::kNoiseFree;
}

std::string PerturbationMethodName(PerturbationMethod method) {
  switch (method) {
    case PerturbationMethod::kNoiseFree:
      return "none";
    case PerturbationMethod::kDp:
      return "DP";
    case PerturbationMethod::kGeoDp:
      return "GeoDP";
  }
  return "?";
}

Tensor IdentityPerturber::Perturb(const Tensor& avg_clipped_gradient,
                                  Rng& /*rng*/) const {
  return avg_clipped_gradient;
}

std::unique_ptr<Perturber> MakePerturberForMethod(
    PerturbationMethod method, const PerturbationOptions& base, double beta,
    AngleHandling angle_handling) {
  switch (method) {
    case PerturbationMethod::kNoiseFree:
      return std::make_unique<IdentityPerturber>();
    case PerturbationMethod::kDp:
      return std::make_unique<DpPerturber>(base);
    case PerturbationMethod::kGeoDp: {
      GeoDpOptions options;
      options.base = base;
      options.beta = beta;
      options.angle_handling = angle_handling;
      return std::make_unique<GeoDpPerturber>(options);
    }
  }
  return nullptr;
}

}  // namespace geodp
