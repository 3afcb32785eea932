// Example (extension, paper §VII future work): federated averaging with
// GeoDP-perturbed client updates. Each client computes a clipped model
// delta on its local shard, perturbs it (DP or GeoDP) before upload, and
// the server averages the noisy deltas.
//
//   $ ./examples/federated_geodp

#include <cstdio>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "clip/clipping.h"
#include "core/perturbation.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "optim/dp_sgd.h"
#include "tensor/tensor_ops.h"

namespace {

using namespace geodp;

constexpr int kClients = 8;
constexpr int kRounds = 30;
constexpr int kLocalSteps = 4;
constexpr int64_t kLocalBatch = 16;
constexpr double kClip = 0.1;
constexpr double kServerLr = 1.0;
constexpr double kClientLr = 1.0;

// One client's clipped, locally-trained model delta.
Tensor ClientDelta(Sequential& model, const InMemoryDataset& shard,
                   const Tensor& global_flat, Rng& rng) {
  const auto params = model.Parameters();
  SetValuesFromFlat(params, global_flat);
  SoftmaxCrossEntropy loss;
  // Local steps are not clipped per-sample: at this threshold every clip
  // scale is exactly 1, so averaged_clipped is the plain average.
  const FlatClipper clipper(1e9);
  for (int step = 0; step < kLocalSteps; ++step) {
    std::vector<int64_t> batch;
    for (int64_t i = 0; i < kLocalBatch; ++i) {
      batch.push_back(static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(shard.size()))));
    }
    const PrivateBatchGradient grads =
        ComputePerSampleGradients(model, loss, shard, batch, clipper);
    ApplyFlatUpdate(params, grads.averaged_clipped, kClientLr);
  }
  Tensor delta = Sub(global_flat, FlattenValues(params));
  // Clip the *update* to bound each client's contribution.
  const double norm = delta.L2Norm();
  if (norm > kClip) delta.ScaleInPlace(static_cast<float>(kClip / norm));
  return delta;
}

double RunFederated(const std::vector<InMemoryDataset>& shards,
                    const InMemoryDataset& test, const Perturber& perturber,
                    const char* label) {
  Rng rng(7);
  auto model = MakeLogisticRegression(196, 10, rng);
  const auto params = model->Parameters();
  Tensor global_flat = FlattenValues(params);
  Rng noise_rng(8);
  Rng client_rng(9);

  for (int round = 0; round < kRounds; ++round) {
    Tensor aggregate({global_flat.numel()});
    for (int c = 0; c < kClients; ++c) {
      const Tensor delta =
          ClientDelta(*model, shards[static_cast<size_t>(c)], global_flat,
                      client_rng);
      aggregate.AddInPlace(perturber.Perturb(delta, noise_rng));
    }
    aggregate.ScaleInPlace(1.0f / kClients);
    global_flat.AxpyInPlace(static_cast<float>(-kServerLr), aggregate);
    // AxpyInPlace subtracts lr*avg_delta; delta points from new to old
    // weights, so descending means subtracting it.
  }
  SetValuesFromFlat(params, global_flat);
  const double acc = EvaluateAccuracy(*model, test);
  std::printf("%-28s final test accuracy %.2f%%\n", label, acc * 100);
  return acc;
}

}  // namespace

int main() {
  SyntheticImageOptions data_options;
  data_options.num_examples = 8 * 100 + 200;
  data_options.seed = 41;
  InMemoryDataset all = MakeMnistLike(data_options);
  const InMemoryDataset test = all.SplitTail(200);
  std::vector<InMemoryDataset> shards;
  for (int c = 0; c < kClients; ++c) {
    shards.push_back(all.SplitTail(100));
  }

  const double kSigma = 0.1;
  PerturbationOptions base;
  base.clip_threshold = kClip;
  base.batch_size = 1;  // one update per client per round
  base.noise_multiplier = kSigma;

  std::printf("Federated averaging, %d clients, %d rounds, sigma=%.2f\n\n",
              kClients, kRounds, kSigma);

  GeoDpOptions geo_options;
  geo_options.base = base;
  geo_options.beta = 0.0005;
  const GeoDpPerturber geo(geo_options);
  const DpPerturber dp(base);
  PerturbationOptions none = base;
  none.noise_multiplier = 0.0;
  const DpPerturber noise_free(none);

  RunFederated(shards, test, noise_free, "FedAvg (no noise)");
  RunFederated(shards, test, dp, "FedAvg + DP");
  RunFederated(shards, test, geo, "FedAvg + GeoDP (beta=0.0005)");
  return 0;
}
