#include "optim/adaptive_beta.h"

#include <algorithm>
#include <numbers>

#include "base/check.h"

namespace geodp {

AdaptiveBetaController::AdaptiveBetaController(double floor, double ceiling,
                                               double safety_factor,
                                               double decay)
    : floor_(floor),
      ceiling_(ceiling),
      safety_factor_(safety_factor),
      decay_(decay) {
  GEODP_CHECK_GT(floor_, 0.0);
  GEODP_CHECK_GE(ceiling_, floor_);
  GEODP_CHECK_LE(ceiling_, 1.0);
  GEODP_CHECK_GT(safety_factor_, 0.0);
  GEODP_CHECK(decay_ > 0.0 && decay_ <= 1.0);
}

void AdaptiveBetaController::Observe(const SphericalCoordinates& direction) {
  const size_t n = direction.angles.size();
  GEODP_CHECK_GT(n, 0u);
  if (min_angle_.empty()) {
    min_angle_ = direction.angles;
    max_angle_ = direction.angles;
  }
  GEODP_CHECK_EQ(min_angle_.size(), n);
  for (size_t z = 0; z < n; ++z) {
    const double a = direction.angles[z];
    // Shrink the envelope toward its center, then extend to cover `a`.
    const double center = 0.5 * (min_angle_[z] + max_angle_[z]);
    min_angle_[z] = center + decay_ * (min_angle_[z] - center);
    max_angle_[z] = center + decay_ * (max_angle_[z] - center);
    min_angle_[z] = std::min(min_angle_[z], a);
    max_angle_[z] = std::max(max_angle_[z], a);
  }
  ++observations_;
}

AdaptiveBetaState AdaptiveBetaController::ExportState() const {
  AdaptiveBetaState state;
  state.observations = observations_;
  state.min_angle = min_angle_;
  state.max_angle = max_angle_;
  return state;
}

Status AdaptiveBetaController::ImportState(const AdaptiveBetaState& state) {
  if (state.observations < 0 ||
      state.min_angle.size() != state.max_angle.size()) {
    return Status::FailedPrecondition("adaptive-beta state is inconsistent");
  }
  observations_ = state.observations;
  min_angle_ = state.min_angle;
  max_angle_ = state.max_angle;
  return Status::Ok();
}

double AdaptiveBetaController::CurrentBeta() const {
  if (observations_ == 0) return ceiling_;
  double mean_ratio = 0.0;
  const size_t n = min_angle_.size();
  for (size_t z = 0; z < n; ++z) {
    const double full_range =
        (z + 1 < n) ? std::numbers::pi : 2.0 * std::numbers::pi;
    mean_ratio += (max_angle_[z] - min_angle_[z]) / full_range;
  }
  mean_ratio /= static_cast<double>(n);
  return std::clamp(safety_factor_ * mean_ratio, floor_, ceiling_);
}

}  // namespace geodp
