#include "core/perturbation.h"

#include <cmath>
#include <numbers>
#include <utility>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "base/thread_pool.h"
#include "obs/trace.h"

namespace geodp {
namespace {

void ValidateOptions(const PerturbationOptions& options) {
  GEODP_CHECK_GT(options.clip_threshold, 0.0);
  GEODP_CHECK_GE(options.batch_size, 1);
  GEODP_CHECK_GE(options.noise_multiplier, 0.0);
}

// Coordinates per noise substream. Noise is sampled in parallel from
// per-chunk xoshiro256++ substreams rooted at a single draw from the
// caller's generator, so a release is reproducible from the parent seed
// and invariant to the thread count (the chunk structure, not the
// scheduling, determines which variate lands on which coordinate).
constexpr int64_t kNoiseGrain = 4096;

// Adds i.i.d. N(0, stddev^2) noise to values[0..count) from substreams
// rooted at `root`.
void AddGaussianNoise(float* values, int64_t count, double stddev,
                      uint64_t root) {
  ParallelForChunks(0, count, kNoiseGrain,
                    [&](int64_t chunk, int64_t lo, int64_t hi) {
                      Rng stream =
                          Rng::Substream(root, static_cast<uint64_t>(chunk));
                      simd::GaussianAdd(stream, stddev, values + lo, hi - lo);
                    });
}

// Same substream scheme for a double-valued angle vector.
void AddGaussianNoise(std::vector<double>& values, double stddev,
                      uint64_t root) {
  ParallelForChunks(0, static_cast<int64_t>(values.size()), kNoiseGrain,
                    [&](int64_t chunk, int64_t lo, int64_t hi) {
                      Rng stream =
                          Rng::Substream(root, static_cast<uint64_t>(chunk));
                      simd::GaussianAdd(stream, stddev,
                                        values.data() + lo, hi - lo);
                    });
}

void AddLaplaceNoise(std::vector<double>& values, double scale,
                     uint64_t root) {
  ParallelForChunks(0, static_cast<int64_t>(values.size()), kNoiseGrain,
                    [&](int64_t chunk, int64_t lo, int64_t hi) {
                      Rng stream =
                          Rng::Substream(root, static_cast<uint64_t>(chunk));
                      for (int64_t i = lo; i < hi; ++i) {
                        values[static_cast<size_t>(i)] +=
                            stream.Laplace(scale);
                      }
                    });
}

}  // namespace

DpPerturber::DpPerturber(PerturbationOptions options) : options_(options) {
  ValidateOptions(options_);
}

double DpPerturber::CoordinateNoiseStddev() const {
  return options_.clip_threshold * options_.noise_multiplier /
         static_cast<double>(options_.batch_size);
}

NoiseStddevs DpPerturber::Stddevs(int64_t /*dimension*/) const {
  return {CoordinateNoiseStddev(), 0.0};
}

Tensor DpPerturber::Perturb(const Tensor& avg_clipped_gradient,
                            Rng& rng) const {
  GEODP_CHECK_EQ(avg_clipped_gradient.ndim(), 1);
  const TraceSpan span("perturb.dp");
  Tensor out = avg_clipped_gradient;
  // One root draw advances the parent deterministically; the coordinate
  // noise itself comes from per-chunk substreams (see AddGaussianNoise).
  const uint64_t root = rng.Next();
  AddGaussianNoise(out.data(), out.numel(), CoordinateNoiseStddev(), root);
  return out;
}

GeoDpPerturber::GeoDpPerturber(GeoDpOptions options) : options_(options) {
  ValidateOptions(options_.base);
  GEODP_CHECK(options_.beta > 0.0 && options_.beta <= 1.0)
      << "bounding factor beta must lie in (0, 1]";
  GEODP_CHECK_GE(options_.magnitude_sigma_scale, 0.0);
  GEODP_CHECK_GE(options_.direction_sigma_scale, 0.0);
}

double GeoDpPerturber::MagnitudeNoiseStddev() const {
  return options_.magnitude_sigma_scale * options_.base.clip_threshold *
         options_.base.noise_multiplier /
         static_cast<double>(options_.base.batch_size);
}

double GeoDpPerturber::DirectionNoiseStddev(int64_t dimension) const {
  const DirectionSensitivity sensitivity =
      ComputeDirectionSensitivity(dimension, options_.beta);
  return options_.direction_sigma_scale * sensitivity.total_l2 *
         options_.base.noise_multiplier /
         static_cast<double>(options_.base.batch_size);
}

SphericalCoordinates GeoDpPerturber::PerturbSpherical(
    SphericalCoordinates coords, Rng& rng) const {
  coords.magnitude += rng.Gaussian(0.0, MagnitudeNoiseStddev());
  if (options_.clamp_magnitude && coords.magnitude < 0.0) {
    coords.magnitude = 0.0;
  }
  const double angle_stddev = DirectionNoiseStddev(coords.CartesianDim());
  AddGaussianNoise(coords.angles, angle_stddev, rng.Next());
  switch (options_.angle_handling) {
    case AngleHandling::kNone:
      break;
    case AngleHandling::kWrap:
      coords.angles = WrapAngles(std::move(coords.angles));
      break;
    case AngleHandling::kClamp:
      coords.angles = ClampAngles(std::move(coords.angles));
      break;
  }
  return coords;
}

NoiseStddevs GeoDpPerturber::Stddevs(int64_t dimension) const {
  return {MagnitudeNoiseStddev(), DirectionNoiseStddev(dimension)};
}

Tensor GeoDpPerturber::Perturb(const Tensor& avg_clipped_gradient,
                               Rng& rng) const {
  GEODP_CHECK_EQ(avg_clipped_gradient.ndim(), 1);
  GEODP_CHECK_GE(avg_clipped_gradient.dim(0), 2)
      << "GeoDP needs at least a 2-dimensional gradient";
  SphericalCoordinates coords;
  {
    const TraceSpan span("spherical.to_spherical");
    coords = ToSpherical(avg_clipped_gradient);
  }
  {
    // The angle noise lands in place: Perturb owns these coordinates.
    const TraceSpan span("perturb.geodp");
    coords = PerturbSpherical(std::move(coords), rng);
  }
  const TraceSpan span("spherical.to_cartesian");
  return ToCartesian(coords);
}

GeoLaplacePerturber::GeoLaplacePerturber(GeoLaplaceOptions options)
    : options_(options) {
  GEODP_CHECK_GT(options_.clip_threshold, 0.0);
  GEODP_CHECK_GE(options_.batch_size, 1);
  GEODP_CHECK_GT(options_.magnitude_epsilon, 0.0);
  GEODP_CHECK_GT(options_.direction_epsilon, 0.0);
  GEODP_CHECK(options_.beta > 0.0 && options_.beta <= 1.0);
}

double GeoLaplacePerturber::MagnitudeNoiseScale() const {
  return options_.clip_threshold /
         (options_.magnitude_epsilon *
          static_cast<double>(options_.batch_size));
}

double GeoLaplacePerturber::DirectionNoiseScale(int64_t dimension) const {
  GEODP_CHECK_GE(dimension, 2);
  // L1 sensitivity of the angle vector: (d-2) angles of range beta*pi plus
  // one of range 2*beta*pi.
  const double l1_sensitivity =
      static_cast<double>(dimension) * options_.beta * std::numbers::pi;
  return l1_sensitivity / (options_.direction_epsilon *
                           static_cast<double>(options_.batch_size));
}

NoiseStddevs GeoLaplacePerturber::Stddevs(int64_t dimension) const {
  // Laplace(b) has stddev sqrt(2) * b.
  const double kSqrt2 = std::sqrt(2.0);
  return {kSqrt2 * MagnitudeNoiseScale(),
          kSqrt2 * DirectionNoiseScale(dimension)};
}

Tensor GeoLaplacePerturber::Perturb(const Tensor& avg_clipped_gradient,
                                    Rng& rng) const {
  GEODP_CHECK_EQ(avg_clipped_gradient.ndim(), 1);
  GEODP_CHECK_GE(avg_clipped_gradient.dim(0), 2);
  SphericalCoordinates coords = ToSpherical(avg_clipped_gradient);
  coords.magnitude += rng.Laplace(MagnitudeNoiseScale());
  const double angle_scale = DirectionNoiseScale(coords.CartesianDim());
  AddLaplaceNoise(coords.angles, angle_scale, rng.Next());
  switch (options_.angle_handling) {
    case AngleHandling::kNone:
      break;
    case AngleHandling::kWrap:
      coords.angles = WrapAngles(std::move(coords.angles));
      break;
    case AngleHandling::kClamp:
      coords.angles = ClampAngles(std::move(coords.angles));
      break;
  }
  return ToCartesian(coords);
}

}  // namespace geodp
