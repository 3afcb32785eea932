// Gradient perturbation strategies.
//
// `DpPerturber` is traditional DP-SGD noise (paper Eq. 8): i.i.d. Gaussian
// noise of scale C*sigma added to the *sum* of clipped per-sample gradients,
// i.e. scale C*sigma/B on the averaged gradient.
//
// `GeoDpPerturber` is the paper's contribution (Algorithm 1): the averaged
// clipped gradient is converted to hyper-spherical coordinates, the
// magnitude is perturbed with scale C*sigma/B, each angle is perturbed with
// scale sqrt(d+2)*beta*pi*sigma/B, and the result is converted back.
//
// Both operate on the averaged clipped gradient so they can be composed
// with any clipping strategy (src/clip) and any optimizer (src/optim).

#ifndef GEODP_CORE_PERTURBATION_H_
#define GEODP_CORE_PERTURBATION_H_

#include <memory>
#include <string>

#include "base/rng.h"
#include "core/privacy_region.h"
#include "core/spherical.h"
#include "tensor/tensor.h"

namespace geodp {

/// Noise scales of one release on a d-dimensional gradient, for telemetry
/// (obs/step_observer.h). `magnitude` is the stddev on the magnitude (for
/// DP: on each Cartesian coordinate); `direction` is the stddev on each
/// angle for the geometric strategies, 0 otherwise.
struct NoiseStddevs {
  double magnitude = 0.0;
  double direction = 0.0;
};

/// Interface: perturbs an averaged clipped gradient in a DP fashion.
class Perturber {
 public:
  virtual ~Perturber() = default;

  /// Returns the noisy version of `avg_clipped_gradient` (1-D tensor).
  virtual Tensor Perturb(const Tensor& avg_clipped_gradient,
                         Rng& rng) const = 0;

  /// Human-readable strategy name for reports.
  virtual std::string name() const = 0;

  /// Noise stddevs this strategy would apply to a gradient of the given
  /// dimensionality. The noise-free default reports zero.
  virtual NoiseStddevs Stddevs(int64_t dimension) const {
    (void)dimension;
    return {};
  }
};

/// Shared parameters of both strategies.
struct PerturbationOptions {
  double clip_threshold = 0.1;   // C
  int64_t batch_size = 1;        // B
  double noise_multiplier = 1.0; // sigma
};

/// Traditional DP-SGD perturbation (paper Eq. 8).
class DpPerturber : public Perturber {
 public:
  explicit DpPerturber(PerturbationOptions options);

  Tensor Perturb(const Tensor& avg_clipped_gradient, Rng& rng) const override;
  std::string name() const override { return "DP"; }
  NoiseStddevs Stddevs(int64_t dimension) const override;

  /// Per-coordinate noise stddev on the averaged gradient: C*sigma/B.
  double CoordinateNoiseStddev() const;

  const PerturbationOptions& options() const { return options_; }

 private:
  PerturbationOptions options_;
};

/// How perturbed angles are mapped back before the Cartesian conversion.
enum class AngleHandling {
  kNone,   // feed perturbed angles straight to ToCartesian (paper behaviour)
  kWrap,   // wrap into canonical ranges (ablation)
  kClamp,  // clamp into canonical ranges (ablation)
};

/// GeoDP-specific parameters.
struct GeoDpOptions {
  PerturbationOptions base;
  double beta = 0.1;  // bounding factor in (0, 1]
  AngleHandling angle_handling = AngleHandling::kNone;
  // Ablation knobs: scale factors applied to the magnitude / direction noise
  // stddevs (1.0 reproduces Algorithm 1 exactly).
  double magnitude_sigma_scale = 1.0;
  double direction_sigma_scale = 1.0;
  // If true, a negative perturbed magnitude is clamped to 0 instead of
  // flipping the direction (ablation; the paper does not clamp).
  bool clamp_magnitude = false;
};

/// Geometric perturbation, paper Algorithm 1.
class GeoDpPerturber : public Perturber {
 public:
  explicit GeoDpPerturber(GeoDpOptions options);

  Tensor Perturb(const Tensor& avg_clipped_gradient, Rng& rng) const override;
  std::string name() const override { return "GeoDP"; }
  NoiseStddevs Stddevs(int64_t dimension) const override;

  /// Perturbs explicitly in spherical coordinates (useful for measuring
  /// direction error without a second conversion). Takes the coordinates
  /// by value and adds the noise in place; pass an rvalue to avoid a copy.
  SphericalCoordinates PerturbSpherical(SphericalCoordinates coords,
                                        Rng& rng) const;

  /// Noise stddev on the magnitude: C*sigma/B (times the ablation scale).
  double MagnitudeNoiseStddev() const;

  /// Noise stddev on each angle of a d-dimensional gradient:
  /// sqrt(d+2)*beta*pi*sigma/B (times the ablation scale).
  double DirectionNoiseStddev(int64_t dimension) const;

  const GeoDpOptions& options() const { return options_; }

 private:
  GeoDpOptions options_;
};

/// Extension beyond the paper: GeoDP instantiated with the Laplace
/// mechanism, giving *pure* epsilon-DP on the magnitude and a relaxed
/// (epsilon, delta')-style guarantee on the direction. Sensitivities are
/// L1: C for the magnitude, (d-2)*beta*pi + 2*beta*pi = d*beta*pi for the
/// direction.
struct GeoLaplaceOptions {
  double clip_threshold = 0.1;   // C
  int64_t batch_size = 1;        // B
  double magnitude_epsilon = 1.0;
  double direction_epsilon = 1.0;
  double beta = 0.1;
  AngleHandling angle_handling = AngleHandling::kNone;
};

/// Laplace-noise geometric perturbation (pure epsilon-DP variant).
class GeoLaplacePerturber : public Perturber {
 public:
  explicit GeoLaplacePerturber(GeoLaplaceOptions options);

  Tensor Perturb(const Tensor& avg_clipped_gradient, Rng& rng) const override;
  std::string name() const override { return "GeoDP-Laplace"; }
  NoiseStddevs Stddevs(int64_t dimension) const override;

  /// Laplace scale on the magnitude: C / (eps_mag * B).
  double MagnitudeNoiseScale() const;

  /// Laplace scale per angle: d*beta*pi / (eps_dir * B).
  double DirectionNoiseScale(int64_t dimension) const;

  const GeoLaplaceOptions& options() const { return options_; }

 private:
  GeoLaplaceOptions options_;
};

}  // namespace geodp

#endif  // GEODP_CORE_PERTURBATION_H_
