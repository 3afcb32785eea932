#include "data/gradient_dataset.h"

#include <cmath>

#include "base/check.h"
#include "data/synthetic_images.h"
#include "models/cnn.h"
#include "nn/loss.h"
#include "nn/parameter.h"

namespace geodp {

void GradientDataset::Add(Tensor gradient) {
  GEODP_CHECK_EQ(gradient.ndim(), 1);
  if (!gradients_.empty()) {
    GEODP_CHECK_EQ(gradient.dim(0), dimension());
  }
  gradients_.push_back(std::move(gradient));
}

int64_t GradientDataset::dimension() const {
  GEODP_CHECK(!gradients_.empty());
  return gradients_.front().dim(0);
}

const Tensor& GradientDataset::gradient(int64_t i) const {
  GEODP_CHECK(i >= 0 && i < size());
  return gradients_[static_cast<size_t>(i)];
}

Tensor GradientDataset::AverageClipped(int64_t count, double clip_threshold,
                                       Rng& rng) const {
  GEODP_CHECK_GT(count, 0);
  GEODP_CHECK_GT(clip_threshold, 0.0);
  GEODP_CHECK_GT(size(), 0);
  Tensor sum({dimension()});
  for (int64_t j = 0; j < count; ++j) {
    const Tensor& g =
        gradient(static_cast<int64_t>(rng.UniformInt(
            static_cast<uint64_t>(size()))));
    const double norm = g.L2Norm();
    const double scale = 1.0 / std::max(1.0, norm / clip_threshold);
    sum.AxpyInPlace(static_cast<float>(scale), g);
  }
  sum.ScaleInPlace(1.0f / static_cast<float>(count));
  return sum;
}

GradientDataset HarvestGradientDataset(const GradientDatasetOptions& options) {
  GEODP_CHECK_GT(options.num_gradients, 0);
  GEODP_CHECK_GE(options.dimension, 2);

  Rng rng(options.seed);
  SyntheticImageOptions image_options;
  image_options.num_examples = options.training_examples;
  image_options.seed = options.seed + 101;
  const InMemoryDataset dataset = MakeCifarLike(image_options);

  CnnConfig cnn_config;
  cnn_config.in_channels = 3;
  cnn_config.image_size = 16;
  auto model = MakeCnn(cnn_config, rng);
  const std::vector<Parameter*> params = model->Parameters();
  const int64_t model_dim = TotalParameterCount(params);

  SoftmaxCrossEntropy loss;
  // Number of raw batch-1 gradients consumed per output vector.
  const int64_t per_output =
      (options.dimension + model_dim - 1) / model_dim;

  GradientDataset out;
  std::vector<float> merged;
  merged.reserve(static_cast<size_t>(per_output * model_dim));
  int64_t step = 0;
  while (out.size() < options.num_gradients) {
    merged.clear();
    for (int64_t j = 0; j < per_output; ++j) {
      const int64_t index = static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(dataset.size())));
      const std::vector<int64_t> y = {dataset.label(index)};
      ZeroGradients(params);
      loss.Forward(model->Forward(dataset.StackImages({index})), y);
      model->Backward(loss.Backward(), nullptr, /*input_grad=*/false);
      const Tensor flat = FlattenGradients(params);
      for (int64_t i = 0; i < flat.numel(); ++i) merged.push_back(flat[i]);
      // Descend so successive gradients come from an evolving model, as in
      // the paper's 9-epoch harvest.
      ApplyFlatUpdate(params, flat, options.learning_rate);
      ++step;
    }
    merged.resize(static_cast<size_t>(options.dimension));
    out.Add(Tensor::Vector(merged));
  }
  (void)step;
  return out;
}

GradientDataset MakeConcentratedGradientDataset(int64_t num_gradients,
                                                int64_t dimension,
                                                double spread,
                                                double mean_magnitude,
                                                uint64_t seed) {
  GEODP_CHECK_GT(num_gradients, 0);
  GEODP_CHECK_GE(dimension, 2);
  GEODP_CHECK_GE(spread, 0.0);
  GEODP_CHECK_GT(mean_magnitude, 0.0);
  Rng rng(seed);
  // Shared mean direction.
  Tensor mean_dir = Tensor::Randn({dimension}, rng);
  mean_dir.ScaleInPlace(static_cast<float>(1.0 / mean_dir.L2Norm()));

  GradientDataset out;
  for (int64_t i = 0; i < num_gradients; ++i) {
    Tensor g = mean_dir;
    for (int64_t z = 0; z < dimension; ++z) {
      g[z] += static_cast<float>(rng.Gaussian(0.0, spread));
    }
    const double magnitude =
        mean_magnitude * std::exp(rng.Gaussian(0.0, 0.25));
    g.ScaleInPlace(static_cast<float>(magnitude / g.L2Norm()));
    out.Add(std::move(g));
  }
  return out;
}

}  // namespace geodp
