// Ghost clipping: per-sample-gradient-free clip-and-accumulate. The core
// contract under test is equivalence with the materialized path — identical
// clipped and raw averaged gradients up to per-tier floating-point
// tolerance — across batch shapes, clippers, SIMD tiers, and thread
// counts, plus the structural-zero handling of non-finite samples.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "base/crc32.h"
#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/thread_pool.h"
#include "clip/clipping.h"
#include "clip/ghost_clipping.h"
#include "data/synthetic_images.h"
#include "models/cnn.h"
#include "models/logistic_regression.h"
#include "models/mlp.h"
#include "models/resnet.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "nn/sequential.h"
#include "optim/dp_sgd.h"
#include "optim/ghost_grad.h"
#include "optim/trainer.h"

namespace geodp {
namespace {

InMemoryDataset MakeTrainSet(int64_t n, uint64_t seed, int64_t size = 8) {
  SyntheticImageOptions options;
  options.num_examples = n;
  options.height = size;
  options.width = size;
  options.pixel_noise = 0.15;
  options.max_shift = 1;
  options.label_noise = 0.0;
  options.seed = seed;
  return MakeSyntheticImages(options);
}

void ExpectTensorsNear(const Tensor& a, const Tensor& b, double tolerance) {
  ASSERT_EQ(a.numel(), b.numel());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tolerance) << "element " << i;
  }
}

// ---------------------------------------------------------------- weights

TEST(GhostClipperTest, WeightsMatchClipperScale) {
  const FlatClipper clipper(1.0);
  const GhostClipper ghost(clipper);
  // Norms 0.5 (under the threshold) and 2.0 (clipped down by half).
  const GhostBatchWeights w =
      ghost.Weights({0.25, 4.0}, {0.7, 0.9});
  ASSERT_EQ(w.clipped.size(), 2u);
  EXPECT_DOUBLE_EQ(w.norms[0], 0.5);
  EXPECT_DOUBLE_EQ(w.norms[1], 2.0);
  EXPECT_DOUBLE_EQ(w.clipped[0], clipper.ClipScale(0.5));
  EXPECT_DOUBLE_EQ(w.clipped[1], clipper.ClipScale(2.0));
  EXPECT_DOUBLE_EQ(w.raw[0], 1.0);
  EXPECT_DOUBLE_EQ(w.raw[1], 1.0);
  EXPECT_EQ(w.included, 2);
  EXPECT_EQ(w.nonfinite_skipped, 0);
  EXPECT_DOUBLE_EQ(w.included_loss_sum, 1.6);
}

TEST(GhostClipperTest, NonFiniteSamplesGetExactZeroWeight) {
  const FlatClipper clipper(1.0);
  const GhostClipper ghost(clipper);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Sample 0: NaN loss. Sample 1: Inf norm. Sample 2: healthy.
  const GhostBatchWeights w =
      ghost.Weights({1.0, inf, 1.0}, {nan, 0.5, 0.5});
  EXPECT_EQ(w.clipped[0], 0.0);
  EXPECT_EQ(w.raw[0], 0.0);
  EXPECT_EQ(w.clipped[1], 0.0);
  EXPECT_EQ(w.raw[1], 0.0);
  EXPECT_GT(w.clipped[2], 0.0);
  EXPECT_EQ(w.included, 1);
  EXPECT_EQ(w.nonfinite_skipped, 2);
  EXPECT_DOUBLE_EQ(w.included_loss_sum, 0.5);
}

TEST(GhostClipperTest, ZeroNormSampleStaysIncluded) {
  const FlatClipper clipper(0.1);
  const GhostClipper ghost(clipper);
  const GhostBatchWeights w = ghost.Weights({0.0}, {1.0});
  // Flat clipping leaves an all-zero gradient untouched (scale 1).
  EXPECT_DOUBLE_EQ(w.clipped[0], 1.0);
  EXPECT_EQ(w.included, 1);
  EXPECT_EQ(w.nonfinite_skipped, 0);
}

// ----------------------------------------------------------- layer hooks

// Runs `layer` per sample with the materialized Backward and returns each
// sample's flattened parameter gradient. Leaves gradients zeroed.
std::vector<Tensor> MaterializedPerSampleGrads(Layer& layer, const Tensor& x,
                                               const Tensor& gy,
                                               std::vector<Tensor>* grad_in) {
  const std::vector<Parameter*> params = layer.Parameters();
  const int64_t batch = x.dim(0);
  const int64_t in_stride = x.numel() / batch;
  const int64_t out_stride = gy.numel() / batch;
  std::vector<int64_t> in_shape = x.shape(), out_shape = gy.shape();
  in_shape[0] = 1;
  out_shape[0] = 1;
  std::vector<Tensor> grads;
  for (int64_t b = 0; b < batch; ++b) {
    ZeroGradients(params);
    Tensor xb(in_shape);
    std::memcpy(xb.data(), x.data() + b * in_stride,
                static_cast<size_t>(in_stride) * sizeof(float));
    Tensor gyb(out_shape);
    std::memcpy(gyb.data(), gy.data() + b * out_stride,
                static_cast<size_t>(out_stride) * sizeof(float));
    layer.Forward(xb);
    Tensor gib = layer.Backward(gyb);
    if (grad_in != nullptr) grad_in->push_back(std::move(gib));
    grads.push_back(FlattenGradients(params));
  }
  ZeroGradients(params);
  return grads;
}

double SquaredNorm(const Tensor& t) {
  double sum = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sum += static_cast<double>(t[i]) * static_cast<double>(t[i]);
  }
  return sum;
}

template <typename LayerT>
void CheckLayerGhostHooks(LayerT& layer, const Tensor& x, const Tensor& gy,
                          const std::vector<double>& accumulate_weights) {
  const int64_t batch = x.dim(0);
  std::vector<Tensor> grad_in_rows;
  const std::vector<Tensor> per_sample =
      MaterializedPerSampleGrads(layer, x, gy, &grad_in_rows);

  // Pass 1: ghost norms must match the materialized per-sample norms and
  // the input gradient must match the batched materialized backward.
  layer.Forward(x);
  std::vector<double> ghost_norm_sq(static_cast<size_t>(batch), 0.0);
  const Tensor grad_input = layer.GhostBackward(gy, ghost_norm_sq);
  const int64_t in_stride = x.numel() / batch;
  for (int64_t b = 0; b < batch; ++b) {
    const double want = SquaredNorm(per_sample[static_cast<size_t>(b)]);
    EXPECT_NEAR(ghost_norm_sq[static_cast<size_t>(b)], want,
                1e-7 * (1.0 + want))
        << "sample " << b;
    for (int64_t i = 0; i < in_stride; ++i) {
      EXPECT_NEAR(grad_input[b * in_stride + i],
                  grad_in_rows[static_cast<size_t>(b)][i], 1e-5)
          << "grad_input sample " << b << " element " << i;
    }
  }

  // Pass 2: weighted accumulation must equal the weighted sum of the
  // materialized per-sample gradients.
  layer.GhostAccumulate(accumulate_weights);
  const Tensor got = FlattenGradients(layer.Parameters());
  Tensor want(got.shape());
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t i = 0; i < want.numel(); ++i) {
      want[i] += static_cast<float>(
          accumulate_weights[static_cast<size_t>(b)] *
          static_cast<double>(per_sample[static_cast<size_t>(b)][i]));
    }
  }
  ExpectTensorsNear(got, want, 1e-4);
  ZeroGradients(layer.Parameters());
}

TEST(LinearGhostTest, NormsGradInputAndAccumulationMatchMaterialized) {
  Rng rng(21);
  Linear layer(5, 3, rng);
  const Tensor x = Tensor::Randn({4, 5}, rng);
  const Tensor gy = Tensor::Randn({4, 3}, rng);
  CheckLayerGhostHooks(layer, x, gy, {0.5, 0.0, 2.0, 1.0});
}

TEST(LinearGhostTest, WithoutBiasMatchesMaterialized) {
  Rng rng(22);
  Linear layer(6, 4, rng, /*with_bias=*/false);
  const Tensor x = Tensor::Randn({3, 6}, rng);
  const Tensor gy = Tensor::Randn({3, 4}, rng);
  CheckLayerGhostHooks(layer, x, gy, {1.0, 0.3, 1.0});
}

TEST(Conv2dGhostTest, NormsGradInputAndAccumulationMatchMaterialized) {
  Rng rng(23);
  Conv2d layer(2, 3, /*kernel_size=*/3, rng, /*padding=*/1);
  const Tensor x = Tensor::Randn({3, 2, 5, 5}, rng);
  const Tensor gy = Tensor::Randn({3, 3, 5, 5}, rng);
  CheckLayerGhostHooks(layer, x, gy, {0.7, 0.0, 1.3});
}

TEST(Conv2dGhostTest, DirectImplMatchesMaterialized) {
  Rng rng(24);
  Conv2d layer(1, 2, /*kernel_size=*/3, rng, /*padding=*/0,
               /*with_bias=*/true, ConvImpl::kDirect);
  const Tensor x = Tensor::Randn({2, 1, 6, 6}, rng);
  const Tensor gy = Tensor::Randn({2, 2, 4, 4}, rng);
  CheckLayerGhostHooks(layer, x, gy, {1.0, 0.25});
}

TEST(LinearGhostTest, ZeroWeightExcludesNonFiniteSampleStructurally) {
  Rng rng(25);
  Linear layer(4, 3, rng);
  const Tensor x = Tensor::Randn({2, 4}, rng);
  Tensor gy = Tensor::Randn({2, 3}, rng);
  gy[0] = std::numeric_limits<float>::infinity();
  gy[1] = std::numeric_limits<float>::quiet_NaN();

  layer.Forward(x);
  std::vector<double> ghost_norm_sq(2, 0.0);
  layer.GhostBackward(gy, ghost_norm_sq);
  EXPECT_FALSE(std::isfinite(ghost_norm_sq[0]));
  EXPECT_TRUE(std::isfinite(ghost_norm_sq[1]));

  // Weight exactly 0.0 must skip the poisoned sample structurally — a
  // multiply would produce 0 * Inf = NaN and poison the sums.
  layer.GhostAccumulate({0.0, 1.0});
  const Tensor got = FlattenGradients(layer.Parameters());
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(got[i])) << "element " << i;
  }
  ZeroGradients(layer.Parameters());
}

TEST(Conv2dGhostTest, ZeroWeightExcludesNonFiniteSampleStructurally) {
  Rng rng(26);
  Conv2d layer(1, 2, /*kernel_size=*/3, rng, /*padding=*/1);
  const Tensor x = Tensor::Randn({2, 1, 4, 4}, rng);
  Tensor gy = Tensor::Randn({2, 2, 4, 4}, rng);
  gy[3] = std::numeric_limits<float>::infinity();

  layer.Forward(x);
  std::vector<double> ghost_norm_sq(2, 0.0);
  layer.GhostBackward(gy, ghost_norm_sq);
  EXPECT_FALSE(std::isfinite(ghost_norm_sq[0]));

  layer.GhostAccumulate({0.0, 1.0});
  const Tensor got = FlattenGradients(layer.Parameters());
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(got[i])) << "element " << i;
  }
  ZeroGradients(layer.Parameters());
}

// ------------------------------------------------------- full-model driver

TEST(GhostGradTest, SupportDetection) {
  Rng rng(31);
  CnnConfig config;
  auto cnn = MakeCnn(config, rng);
  EXPECT_TRUE(GhostClipSupported(*cnn));
  auto logreg = MakeLogisticRegression(64, 10, rng);
  EXPECT_TRUE(GhostClipSupported(*logreg));

  // ResidualBlock has parameters but no ghost hooks, so ResNet must be
  // reported unsupported.
  auto resnet = MakeResNet(ResNetConfig{}, rng);
  EXPECT_FALSE(GhostClipSupported(*resnet));
}

TEST(GhostGradTest, ClipBoundHolds) {
  // With large inputs every sample of a logistic-regression model is
  // clipped, and the ghost path's average must stay <= C.
  Rng rng(43);
  InMemoryDataset ds;
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < 8; ++i) {
    ds.Add(Tensor::Randn({12}, rng, 5.0f), i % 4);
    indices.push_back(i);
  }
  auto model = MakeLogisticRegression(12, 4, rng);
  const auto params = model->Parameters();
  params[0]->value = Tensor::Randn({4, 12}, rng);
  params[1]->value = Tensor::Randn({4}, rng);
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(0.02);
  const PrivateBatchGradient result =
      ComputeGhostClippedGradients(*model, loss, ds, indices, clipper);
  EXPECT_LE(result.averaged_clipped.L2Norm(), 0.02 + 1e-6);
}

// Checks ghost-vs-materialized equivalence of the complete
// PrivateBatchGradient on one model/dataset/clipper combination.
void CheckEquivalence(Sequential& model, const InMemoryDataset& train,
                      const std::vector<int64_t>& indices,
                      const Clipper& clipper) {
  SoftmaxCrossEntropy loss;
  const PrivateBatchGradient materialized = ComputePerSampleGradients(
      model, loss, train, indices, clipper, /*for_step_record=*/true);
  const PrivateBatchGradient ghost = ComputeGhostClippedGradients(
      model, loss, train, indices, clipper, /*for_step_record=*/true);

  ASSERT_EQ(ghost.batch_size, materialized.batch_size);
  EXPECT_EQ(ghost.nonfinite_skipped, materialized.nonfinite_skipped);
  EXPECT_NEAR(ghost.mean_loss, materialized.mean_loss, 1e-9);
  ASSERT_EQ(ghost.sample_losses.size(), materialized.sample_losses.size());
  for (size_t b = 0; b < ghost.sample_losses.size(); ++b) {
    EXPECT_NEAR(ghost.sample_losses[b], materialized.sample_losses[b], 1e-9)
        << "sample " << b;
  }
  ASSERT_EQ(ghost.sample_grad_norms.size(),
            materialized.sample_grad_norms.size());
  for (size_t b = 0; b < ghost.sample_grad_norms.size(); ++b) {
    const double want = materialized.sample_grad_norms[b];
    EXPECT_NEAR(ghost.sample_grad_norms[b], want, 1e-6 * (1.0 + want))
        << "sample " << b;
  }
  ExpectTensorsNear(ghost.averaged_clipped, materialized.averaged_clipped,
                    2e-5);
  ExpectTensorsNear(ghost.averaged_raw, materialized.averaged_raw, 2e-5);

  // Every sample's gradient is over the threshold, so clipping binds on
  // all of them, and the ghost average must still respect the bound C.
  const double threshold = clipper.clip_threshold();
  for (size_t b = 0; b < materialized.sample_grad_norms.size(); ++b) {
    EXPECT_GT(materialized.sample_grad_norms[b], threshold) << "sample " << b;
  }
  EXPECT_LE(ghost.averaged_clipped.L2Norm(), threshold * (1.0 + 1e-6));
}

class GhostTierTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = ActiveSimdTier(); }
  void TearDown() override { SetSimdTier(entry_tier_); }

  SimdTier entry_tier_ = SimdTier::kScalar;
};

TEST_F(GhostTierTest, CnnMatchesMaterializedAcrossBatchesAndTiers) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 80;
  data_options.seed = 5;
  const InMemoryDataset train = MakeSyntheticImages(data_options);
  Rng rng(41);
  CnnConfig config;
  auto model = MakeCnn(config, rng);
  const FlatClipper clipper(0.1);

  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    for (const int64_t batch : {int64_t{1}, int64_t{7}, int64_t{64}}) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      std::vector<int64_t> indices(static_cast<size_t>(batch));
      for (int64_t i = 0; i < batch; ++i) indices[static_cast<size_t>(i)] = i;
      CheckEquivalence(*model, train, indices, clipper);
    }
  }
}

TEST_F(GhostTierTest, LogisticRegressionMatchesWithAdaptiveClippers) {
  const InMemoryDataset train = MakeTrainSet(40, 6);
  Rng rng(42);
  auto model = MakeLogisticRegression(64, 10, rng);
  std::vector<int64_t> indices(16);
  for (int64_t i = 0; i < 16; ++i) indices[static_cast<size_t>(i)] = i + 3;

  for (const SimdTier tier : AvailableSimdTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier ") + SimdTierName(tier));
    for (const char* name : {"flat", "AUTO-S", "PSAC"}) {
      SCOPED_TRACE(std::string("clipper ") + name);
      const auto clipper = MakeClipper(name, ClipThreshold(0.1));
      CheckEquivalence(*model, train, indices, *clipper);
    }
  }
}

TEST(GhostGradTest, BitIdenticalAcrossThreadCounts) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 48;
  data_options.seed = 7;
  const InMemoryDataset train = MakeSyntheticImages(data_options);
  Rng rng(43);
  CnnConfig config;
  auto model = MakeCnn(config, rng);
  const FlatClipper clipper(0.1);
  std::vector<int64_t> indices(32);
  for (int64_t i = 0; i < 32; ++i) indices[static_cast<size_t>(i)] = i;
  SoftmaxCrossEntropy loss;

  SetGlobalThreadCount(1);
  const PrivateBatchGradient one = ComputeGhostClippedGradients(
      *model, loss, train, indices, clipper, /*for_step_record=*/true);
  SetGlobalThreadCount(8);
  const PrivateBatchGradient eight = ComputeGhostClippedGradients(
      *model, loss, train, indices, clipper, /*for_step_record=*/true);
  SetGlobalThreadCount(1);

  ASSERT_EQ(one.averaged_clipped.numel(), eight.averaged_clipped.numel());
  ASSERT_EQ(one.averaged_raw.numel(), one.averaged_clipped.numel());
  ASSERT_EQ(one.averaged_raw.numel(), eight.averaged_raw.numel());
  EXPECT_EQ(std::memcmp(one.averaged_clipped.data(),
                        eight.averaged_clipped.data(),
                        static_cast<size_t>(one.averaged_clipped.numel()) *
                            sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(one.averaged_raw.data(), eight.averaged_raw.data(),
                        static_cast<size_t>(one.averaged_raw.numel()) *
                            sizeof(float)),
            0);
}

// Counts the backward calls a layer is asked for. Backward and
// GhostBackward are the calls that return dL/d(input).
class CountingFlatten : public Flatten {
 public:
  Tensor Backward(const Tensor& grad_output) override {
    ++input_grads;
    return Flatten::Backward(grad_output);
  }
  int input_grads = 0;
};

class CountingLinear : public Linear {
 public:
  using Linear::Linear;
  Tensor Backward(const Tensor& grad_output) override {
    ++input_grads;
    return Linear::Backward(grad_output);
  }
  Tensor GhostBackward(
      const Tensor& grad_output,
      std::vector<double>& ghost_norm_sq) override {  // geodp: per-sample
    ++input_grads;
    return Linear::GhostBackward(grad_output,
                                 ghost_norm_sq);  // geodp: per-sample
  }
  void GhostAccumulate(const std::vector<double>& weights) override {
    ++accumulates;
    Linear::GhostAccumulate(weights);
  }
  int input_grads = 0;
  int accumulates = 0;
};

// The step releases only the clipped sum: the raw sum (and the per-sample
// norms) are built only for a step record, and the backward walk never
// asks the first parameterized layer, or any layer before it, for its
// input gradient.
TEST(GhostGradTest, GradientPassComputesOnlyWhatTheStepReads) {
  const InMemoryDataset train = MakeTrainSet(12, 9);
  Rng rng(10);
  Sequential model;
  model.Emplace<CountingFlatten>();
  model.Emplace<CountingLinear>(64, 8, rng);
  model.Emplace<ReLU>();
  model.Emplace<CountingLinear>(8, 10, rng);
  auto& flatten = static_cast<CountingFlatten&>(model.layer(0));
  auto& first = static_cast<CountingLinear&>(model.layer(1));
  auto& last = static_cast<CountingLinear&>(model.layer(3));
  std::vector<int64_t> indices(12);
  for (int64_t i = 0; i < 12; ++i) indices[static_cast<size_t>(i)] = i;
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(0.1);

  for (const bool ghost : {false, true}) {
    for (const bool for_step_record : {false, true}) {
      SCOPED_TRACE(ghost ? "ghost" : "materialize");
      SCOPED_TRACE(for_step_record ? "step record" : "no step record");
      flatten.input_grads = first.input_grads = last.input_grads = 0;
      first.accumulates = last.accumulates = 0;
      const PrivateBatchGradient grads =
          ghost ? ComputeGhostClippedGradients(model, loss, train, indices,
                                               clipper, for_step_record)
                : ComputePerSampleGradients(model, loss, train, indices,
                                            clipper, for_step_record);
      ASSERT_EQ(grads.averaged_clipped.numel(),
                TotalParameterCount(model.Parameters()));
      if (for_step_record) {
        EXPECT_EQ(grads.averaged_raw.numel(), grads.averaged_clipped.numel());
        EXPECT_EQ(grads.sample_grad_norms.size(), indices.size());
      } else {
        EXPECT_TRUE(grads.averaged_raw.empty());
        EXPECT_TRUE(grads.sample_grad_norms.empty());
      }
      EXPECT_EQ(flatten.input_grads, 0);
      EXPECT_EQ(first.input_grads, 0);
      // Ghost runs one batched backward, materialize one per sample.
      EXPECT_EQ(last.input_grads, ghost ? 1 : 12);
      const int accumulates = ghost ? (for_step_record ? 2 : 1) : 0;
      EXPECT_EQ(first.accumulates, accumulates);
      EXPECT_EQ(last.accumulates, accumulates);
    }
  }
}

// ------------------------------------------------------------ MLP golden
//
// Pins the bytes both gradient paths produce on a small MLP
// (Flatten -> Linear -> ReLU -> Linear, the shape of the wide-MLP
// benchmark workload) with the step-record outputs requested: per SIMD
// tier, at 1 and 4 threads, the CRC-32 of the clipped and raw averages
// and of the bits of the per-sample norms and losses. Three hidden units
// are dead for every sample, and one sample has a NaN pixel. ReLU maps
// that sample's NaN activations to 0, so its loss is finite; ghost's
// ||dy||^2 * ||x||^2 = 0 * NaN excludes it, while materialize's matmul
// skips the zero rows of dy and keeps it. The golden pins both.

struct GradientFingerprint {
  int64_t nonfinite_skipped = 0;
  uint32_t clipped_crc = 0;
  uint32_t raw_crc = 0;
  uint32_t norms_crc = 0;
  uint32_t losses_crc = 0;
};

uint32_t TensorCrc(const Tensor& t) {
  return Crc32(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

uint32_t DoublesCrc(const std::vector<double>& v) {
  return Crc32(v.data(), v.size() * sizeof(double));
}

GradientFingerprint MlpGradientFingerprint(bool ghost) {
  InMemoryDataset train = MakeTrainSet(16, 88);
  Tensor poisoned = train.image(5);
  poisoned[17] = std::numeric_limits<float>::quiet_NaN();
  InMemoryDataset data;
  for (int64_t i = 0; i < train.size(); ++i) {
    data.Add(i == 5 ? poisoned : train.image(i), train.label(i));
  }
  Rng rng(89);
  MlpConfig config;
  config.input_dim = 64;
  config.hidden_dims = {12};
  auto model = MakeMlp(config, rng);
  Parameter& hidden_bias = *model->Parameters()[1];
  for (int64_t unit : {0, 4, 9}) hidden_bias.value[unit] = -100.0f;

  std::vector<int64_t> indices(16);
  for (int64_t i = 0; i < 16; ++i) indices[static_cast<size_t>(i)] = i;
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(0.5);
  const PrivateBatchGradient grads =
      ghost ? ComputeGhostClippedGradients(*model, loss, data, indices,
                                           clipper, true)
            : ComputePerSampleGradients(*model, loss, data, indices, clipper,
                                        true);
  GradientFingerprint out;
  out.nonfinite_skipped = grads.nonfinite_skipped;
  out.clipped_crc = TensorCrc(grads.averaged_clipped);
  out.raw_crc = TensorCrc(grads.averaged_raw);
  out.norms_crc = DoublesCrc(grads.sample_grad_norms);  // geodp: per-sample
  out.losses_crc = DoublesCrc(grads.sample_losses);
  return out;
}

TEST(GradientGoldenTest, MlpBytesPerPathTierAndThreads) {
  // Indexed by SimdTier (scalar, avx2); materialize first, then ghost.
  struct Row {
    bool ghost;
    std::array<GradientFingerprint, 2> want;
  };
  // clang-format off
  const Row rows[] = {
    {false, {{{0, 0x175e5d2du, 0xee1aab0du, 0xf48dae89u, 0x99e388e7u},
              {0, 0x617e5c41u, 0x9c520387u, 0x1c4178cdu, 0xfff5edb0u}}}},
    {true,  {{{1, 0x3597985au, 0xf65d1b87u, 0x67515f08u, 0x99e388e7u},
              {1, 0x0ad51c4du, 0x2f3d5740u, 0x688f0f24u, 0xfff5edb0u}}}},
  };
  // clang-format on
  const SimdTier entry_tier = ActiveSimdTier();
  const int entry_threads = GetGlobalThreadCount();
  for (const Row& row : rows) {
    for (const SimdTier tier : AvailableSimdTiers()) {
      SetSimdTier(tier);
      const GradientFingerprint& want = row.want[static_cast<size_t>(tier)];
      for (const int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        SCOPED_TRACE(row.ghost ? "ghost" : "materialize");
        SCOPED_TRACE(SimdTierName(tier));
        SCOPED_TRACE("threads " + std::to_string(threads));
        const GradientFingerprint got = MlpGradientFingerprint(row.ghost);
        EXPECT_EQ(got.nonfinite_skipped, want.nonfinite_skipped);
        EXPECT_EQ(got.clipped_crc, want.clipped_crc);
        EXPECT_EQ(got.raw_crc, want.raw_crc);
        EXPECT_EQ(got.norms_crc, want.norms_crc);
        EXPECT_EQ(got.losses_crc, want.losses_crc);
      }
    }
  }
  SetSimdTier(entry_tier);
  SetGlobalThreadCount(entry_threads);
}

// ----------------------------------------------------------------- trainer

TEST(TrainerGhostTest, GhostModeTrainsAndConverges) {
  const InMemoryDataset train = MakeTrainSet(200, 1);
  Rng rng(2);
  auto model = MakeLogisticRegression(64, 10, rng);
  const double before = EvaluateMeanLoss(*model, train);

  TrainerOptions options;
  options.method = PerturbationMethod::kNoiseFree;
  options.clip_mode = "ghost";
  options.batch_size = 32;
  options.iterations = 120;
  options.learning_rate = 2.0;
  options.clip_threshold = 0.5;
  options.seed = 3;
  DpTrainer trainer(model.get(), &train, &train, options);
  const TrainingResult result = trainer.Run().value();

  EXPECT_LT(result.final_train_loss, before * 0.7);
  EXPECT_GT(result.test_accuracy, 0.5);
}

TEST(TrainerGhostTest, GhostMatchesMaterializeTrajectory) {
  const InMemoryDataset train = MakeTrainSet(120, 9);
  const auto run = [&](const std::string& clip_mode) {
    Rng rng(4);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions options;
    options.method = PerturbationMethod::kNoiseFree;
    options.clip_mode = clip_mode;
    options.batch_size = 16;
    options.iterations = 10;
    options.learning_rate = 0.5;
    options.record_loss_every = 1;
    options.seed = 5;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    return trainer.Run().value();
  };
  const TrainingResult materialize = run("materialize");
  const TrainingResult ghost = run("ghost");

  ASSERT_EQ(ghost.loss_history.size(), materialize.loss_history.size());
  for (size_t i = 0; i < ghost.loss_history.size(); ++i) {
    EXPECT_NEAR(ghost.loss_history[i], materialize.loss_history[i], 1e-3)
        << "step " << i;
  }
  EXPECT_NEAR(ghost.final_train_loss, materialize.final_train_loss, 1e-3);
}

TEST(TrainerGhostTest, EmptyPoissonLotsAreCountedNotRecorded) {
  // Same rigged sampling rate as the materialized empty-lot regression:
  // P(empty lot) ~ 0.34 per step, so empty lots are all but guaranteed.
  // The ghost path must route them through the zero-gradient branch
  // instead of asserting on an empty batch.
  const InMemoryDataset train = MakeTrainSet(8, 37);
  Rng rng(38);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.clip_mode = "ghost";
  options.poisson_sampling = true;
  options.batch_size = 1;
  options.iterations = 60;
  options.learning_rate = 0.1;
  options.noise_multiplier = 1.0;
  options.record_loss_every = 1;
  options.seed = 39;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  EXPECT_GT(run.value().empty_lots, 0);
  for (const double loss : run.value().loss_history) EXPECT_GT(loss, 0.0);
}

TEST(TrainerGhostTest, NonFiniteSamplesAreSkippedNotPropagated) {
  InMemoryDataset train;
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    Tensor image = Tensor::Randn({1, 8, 8}, rng);
    if (i == 3) image[5] = std::numeric_limits<float>::infinity();
    if (i == 7) image[9] = std::numeric_limits<float>::quiet_NaN();
    train.Add(std::move(image), i % 10);
  }
  Rng model_rng(2);
  auto model = MakeLogisticRegression(64, 10, model_rng);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.clip_mode = "ghost";
  options.batch_size = 24;
  options.iterations = 8;
  options.learning_rate = 0.5;
  options.noise_multiplier = 0.5;
  options.seed = 13;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Both poisoned samples are skipped on every one of the 8 steps and the
  // model stays finite.
  EXPECT_EQ(run.value().nonfinite_skipped, 16);
  const Tensor flat = FlattenValues(model->Parameters());
  for (int64_t i = 0; i < flat.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(flat[i])) << "weight " << i;
  }
}

TEST(TrainerGhostTest, UnsupportedModelRejected) {
  const InMemoryDataset train = MakeTrainSet(32, 1);
  Rng rng(3);
  ResNetConfig config;
  config.in_channels = 1;
  config.image_size = 8;
  config.width = 4;
  config.num_blocks = 1;
  auto model = MakeResNet(config, rng);
  TrainerOptions options;
  options.clip_mode = "ghost";
  options.batch_size = 16;
  options.iterations = 5;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().ToString().find("ghost"), std::string::npos);
}

TEST(TrainerGhostTest, InvalidClipModeAndClipperNamesRejected) {
  const InMemoryDataset train = MakeTrainSet(32, 1);
  Rng rng(3);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions options;
  options.batch_size = 16;
  options.iterations = 5;

  options.clip_mode = "gost";
  {
    DpTrainer trainer(model.get(), &train, nullptr, options);
    StatusOr<TrainingResult> run = trainer.Run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().ToString().find("clip_mode"), std::string::npos);
  }

  options.clip_mode = "materialize";
  options.clipper = "median";  // not a shipped strategy
  {
    DpTrainer trainer(model.get(), &train, nullptr, options);
    StatusOr<TrainingResult> run = trainer.Run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(run.status().ToString().find("clipper"), std::string::npos);
  }
}

}  // namespace
}  // namespace geodp
