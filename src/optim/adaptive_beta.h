// Extension (not in the paper): adapt GeoDP's bounding factor beta to the
// observed concentration of clipped-gradient directions. The paper shows
// beta must be re-tuned per (d, B, sigma); this controller estimates the
// empirical angular range from a decayed min/max envelope of recent
// directions and sets beta = safety_factor * (covered range / full range),
// clamped to [floor, ceiling].
//
// CAVEAT: the envelope is computed from non-privatized directions, so a
// strict deployment must either allocate extra budget for it or tune beta
// on public data. The trainer documents this when the option is enabled;
// the benches use it only for the ablation study.

#ifndef GEODP_OPTIM_ADAPTIVE_BETA_H_
#define GEODP_OPTIM_ADAPTIVE_BETA_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "core/spherical.h"

namespace geodp {

/// Serializable snapshot of the adaptive-beta direction envelope.
struct AdaptiveBetaState {
  int64_t observations = 0;
  std::vector<double> min_angle;
  std::vector<double> max_angle;
};

/// Streaming beta estimator.
class AdaptiveBetaController {
 public:
  /// `decay` < 1 shrinks the envelope toward the mean each observation so
  /// stale extremes age out.
  AdaptiveBetaController(double floor, double ceiling,
                         double safety_factor = 1.5, double decay = 0.99);

  /// Feeds one observed direction (angles of the averaged clipped
  /// gradient).
  void Observe(const SphericalCoordinates& direction);

  /// Current bounding factor; returns the ceiling until the first
  /// observation.
  double CurrentBeta() const;

  int64_t observations() const { return observations_; }

  /// Checkpoint support: snapshot / restore the decayed envelope. An
  /// inconsistent envelope fails with FailedPrecondition.
  AdaptiveBetaState ExportState() const;
  Status ImportState(const AdaptiveBetaState& state);

 private:
  double floor_;
  double ceiling_;
  double safety_factor_;
  double decay_;
  int64_t observations_ = 0;
  std::vector<double> min_angle_;
  std::vector<double> max_angle_;
};

}  // namespace geodp

#endif  // GEODP_OPTIM_ADAPTIVE_BETA_H_
