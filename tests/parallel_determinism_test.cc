// Thread-count invariance: every parallelized hot path must produce
// bit-identical results at 1 thread and at 8 threads. The chunk structure
// of ParallelFor (not the scheduling) fixes the floating-point reduction
// order, and noise comes from per-chunk RNG substreams, so nothing may
// depend on how many workers executed the chunks.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "clip/clipping.h"
#include "core/perturbation.h"
#include "core/spherical.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "nn/im2col.h"
#include "nn/parameter.h"
#include "optim/dp_sgd.h"
#include "optim/geodp_sgd.h"
#include "optim/trainer.h"
#include "support/conv_reference.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

// Runs `fn` at 1 thread and at 8 threads and returns both results.
template <typename Fn>
auto AtThreadCounts(Fn fn) {
  SetGlobalThreadCount(1);
  auto serial = fn();
  SetGlobalThreadCount(8);
  auto parallel = fn();
  SetGlobalThreadCount(0);
  return std::make_pair(std::move(serial), std::move(parallel));
}

TEST(ParallelDeterminismTest, MatmulBitIdentical) {
  const auto [serial, parallel] = AtThreadCounts([] {
    Rng rng(3);
    const Tensor a = Tensor::Randn({37, 53}, rng);
    const Tensor b = Tensor::Randn({53, 29}, rng);
    return Matmul(a, b);
  });
  EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
}

TEST(ParallelDeterminismTest, Im2ColAndCol2ImBitIdentical) {
  const auto [serial, parallel] = AtThreadCounts([] {
    Rng rng(5);
    const Tensor image = Tensor::Randn({3, 16, 16}, rng);
    const Tensor columns = Im2Col(image, 3, 1);
    return std::make_pair(columns, Col2Im(columns, 3, 16, 16, 3, 1));
  });
  EXPECT_EQ(MaxAbsDiff(serial.first, parallel.first), 0.0);
  EXPECT_EQ(MaxAbsDiff(serial.second, parallel.second), 0.0);
}

TEST(ParallelDeterminismTest, ClipAndSumBitIdentical) {
  const auto [serial, parallel] = AtThreadCounts([] {
    Rng rng(7);
    std::vector<Tensor> grads;
    for (int i = 0; i < 67; ++i) grads.push_back(Tensor::Randn({129}, rng));
    const FlatClipper clipper(0.1);
    return ClipAndSum(grads, clipper);
  });
  EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
}

TEST(ParallelDeterminismTest, DpPerturbBitIdentical) {
  const auto [serial, parallel] = AtThreadCounts([] {
    PerturbationOptions options;
    options.clip_threshold = 0.1;
    options.batch_size = 16;
    options.noise_multiplier = 1.0;
    const DpPerturber perturber(options);
    Rng data_rng(11), noise_rng(13);
    const Tensor g = Tensor::Randn({10000}, data_rng);
    return perturber.Perturb(g, noise_rng);
  });
  EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
}

TEST(ParallelDeterminismTest, GeoDpPerturbBitIdentical) {
  const auto [serial, parallel] = AtThreadCounts([] {
    GeoDpOptions options;
    options.base.clip_threshold = 0.1;
    options.base.batch_size = 16;
    options.base.noise_multiplier = 1.0;
    options.beta = 0.1;
    const GeoDpPerturber perturber(options);
    Rng data_rng(17), noise_rng(19);
    const Tensor g = Tensor::Randn({10000}, data_rng);
    return perturber.Perturb(g, noise_rng);
  });
  EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0);
}

TEST(ParallelDeterminismTest, BatchSphericalMatchesElementwise) {
  SetGlobalThreadCount(8);
  Rng rng(31);
  std::vector<Tensor> grads;
  for (int i = 0; i < 13; ++i) grads.push_back(Tensor::Randn({77}, rng));
  const std::vector<SphericalCoordinates> coords = BatchToSpherical(grads);
  const std::vector<Tensor> back = BatchToCartesian(coords);
  ASSERT_EQ(coords.size(), grads.size());
  for (size_t i = 0; i < grads.size(); ++i) {
    const SphericalCoordinates individual = ToSpherical(grads[i]);
    EXPECT_EQ(coords[i].magnitude, individual.magnitude);
    EXPECT_EQ(coords[i].angles, individual.angles);
    EXPECT_EQ(MaxAbsDiff(back[i], ToCartesian(individual)), 0.0);
  }
  SetGlobalThreadCount(0);
}

TEST(ParallelDeterminismTest, PerSampleGradientsBitIdentical) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 70;  // not a multiple of the pipeline block
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = 37;
  const InMemoryDataset train = MakeSyntheticImages(data_options);
  std::vector<int64_t> indices(static_cast<size_t>(train.size()));
  for (size_t i = 0; i < indices.size(); ++i) {
    indices[i] = static_cast<int64_t>(i);
  }

  const auto [serial, parallel] = AtThreadCounts([&] {
    Rng rng(41);
    auto model = MakeLogisticRegression(64, 10, rng);
    SoftmaxCrossEntropy loss;
    const FlatClipper clipper(0.1);
    return ComputePerSampleGradients(*model, loss, train, indices, clipper,
                                     /*for_step_record=*/true);
  });
  ASSERT_FALSE(serial.averaged_raw.empty());
  EXPECT_EQ(MaxAbsDiff(serial.averaged_clipped, parallel.averaged_clipped),
            0.0);
  EXPECT_EQ(MaxAbsDiff(serial.averaged_raw, parallel.averaged_raw), 0.0);
  EXPECT_EQ(serial.sample_losses, parallel.sample_losses);
}

// The headline guarantee: a full private training run — per-sample
// clipping, GeoDP (and DP) perturbation, accounting — lands on exactly
// the same weights with --geodp_num_threads=1 and =8.
TEST(ParallelDeterminismTest, TrainedWeightsBitIdenticalAcrossThreadCounts) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 96;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = 43;
  const InMemoryDataset train = MakeSyntheticImages(data_options);

  for (PerturbationMethod method :
       {PerturbationMethod::kDp, PerturbationMethod::kGeoDp}) {
    const auto [serial, parallel] = AtThreadCounts([&] {
      Rng rng(47);
      auto model = MakeLogisticRegression(64, 10, rng);
      TrainerOptions options;
      options.method = method;
      options.batch_size = 24;
      options.iterations = 8;
      options.learning_rate = 0.5;
      options.noise_multiplier = 1.0;
      options.seed = 53;
      DpTrainer trainer(model.get(), &train, nullptr, options);
      trainer.Run().value();
      return FlattenValues(model->Parameters());
    });
    EXPECT_EQ(MaxAbsDiff(serial, parallel), 0.0)
        << PerturbationMethodName(method);
  }
}

}  // namespace
}  // namespace geodp
