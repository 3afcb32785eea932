#include "stats/direction_stats.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/check.h"
#include "base/rng.h"
#include "core/spherical.h"
#include "stats/summary.h"
#include "tensor/tensor_ops.h"

namespace geodp {

DirectionConcentration AnalyzeDirectionConcentration(
    const GradientDataset& data, int64_t max_gradients) {
  GEODP_CHECK_GT(data.size(), 1);
  const int64_t count = std::min(max_gradients, data.size());
  const int64_t d = data.dimension();

  // Mean direction (normalized mean of unit vectors).
  Tensor center({d});
  for (int64_t i = 0; i < count; ++i) {
    const Tensor& g = data.gradient(i);
    const double norm = g.L2Norm();
    if (norm > 0) center.AxpyInPlace(static_cast<float>(1.0 / norm), g);
  }
  const double center_norm = center.L2Norm();
  GEODP_CHECK_GT(center_norm, 0.0);
  center.ScaleInPlace(static_cast<float>(1.0 / center_norm));

  DirectionConcentration result;
  result.count = count;

  RunningStat cosine;
  std::vector<RunningStat> angle_stats(static_cast<size_t>(d - 1));
  for (int64_t i = 0; i < count; ++i) {
    const Tensor& g = data.gradient(i);
    cosine.Add(CosineSimilarity(g, center));
    const SphericalCoordinates coords = ToSpherical(g);
    for (size_t z = 0; z < coords.angles.size(); ++z) {
      angle_stats[z].Add(coords.angles[z]);
    }
  }
  result.mean_cosine_to_center = cosine.mean();

  RunningStat spreads;
  double max_stddev = 0.0;
  double mean_range_ratio = 0.0;
  for (size_t z = 0; z < angle_stats.size(); ++z) {
    const RunningStat& stat = angle_stats[z];
    spreads.Add(stat.stddev());
    max_stddev = std::max(max_stddev, stat.stddev());
    // Each angle's full range is pi except the last one's 2*pi.
    const double full_range = (z + 1 < angle_stats.size())
                                  ? std::numbers::pi
                                  : 2.0 * std::numbers::pi;
    mean_range_ratio += (stat.max() - stat.min()) / full_range;
  }
  result.mean_angle_stddev = spreads.mean();
  result.max_angle_stddev = max_stddev;
  result.empirical_beta = std::min(
      1.0, mean_range_ratio / static_cast<double>(angle_stats.size()));
  return result;
}

std::vector<double> SampleAveragedAngleCoordinate(
    const GradientDataset& data, int64_t batch, int64_t angle_index,
    int64_t trials, uint64_t seed) {
  GEODP_CHECK_GT(batch, 0);
  GEODP_CHECK_GT(trials, 0);
  GEODP_CHECK(angle_index >= 0 && angle_index < data.dimension() - 1);
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(trials));
  for (int64_t t = 0; t < trials; ++t) {
    double sum = 0.0;
    for (int64_t j = 0; j < batch; ++j) {
      const Tensor& g = data.gradient(static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(data.size()))));
      const SphericalCoordinates coords = ToSpherical(g);
      sum += coords.angles[static_cast<size_t>(angle_index)];
    }
    samples.push_back(sum / static_cast<double>(batch));
  }
  return samples;
}

}  // namespace geodp
