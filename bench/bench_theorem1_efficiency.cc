// Theorem 1 (impact of DP noise on model efficiency): the efficiency
// difference between a noisy and a noise-free step decomposes as
//   ED = eta^2 (||g~*||^2 - ||g~||^2)   [Item A, magnitude effect]
//      + 2 eta <g~* - g~, w* - w_t>      [Item B, direction effect]
// Fine-tuning (lr, clipping, B) can shrink Item A but not Item B
// (Corollary 2); GeoDP attacks Item B directly. This bench measures both
// items along a real LR training run for DP and GeoDP.
// Expected shape: comparable Item A magnitudes, but GeoDP's |Item B| far
// below DP's at small beta; DP-SGD also never rests at the optimum
// (Corollary 1: ED > 0 when w_t == w*).

#include <cmath>

#include "base/rng.h"
#include "clip/clipping.h"
#include "common/bench_util.h"
#include "models/logistic_regression.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "optim/dp_sgd.h"
#include "optim/trainer.h"
#include "stats/summary.h"
#include "stats/table.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace bench {
namespace {

constexpr double kLr = 2.0;
constexpr double kClip = 0.1;
constexpr int64_t kBatch = 128;
constexpr double kSigma = 4.0;
constexpr int kSteps = 100;

struct EdDecomposition {
  double mean_item_a = 0.0;
  double mean_abs_item_b = 0.0;
  double mean_ed = 0.0;
};

EdDecomposition MeasureDecomposition(const InMemoryDataset& train,
                                     const Tensor& optimum,
                                     const Perturber& perturber,
                                     uint64_t seed) {
  Rng init_rng(5);
  auto model = MakeLogisticRegression(196, 10, init_rng);
  const auto params = model->Parameters();
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(kClip);
  Rng rng(seed);
  Rng noise_rng(seed + 1);

  RunningStat item_a, item_b_abs, ed;
  for (int t = 0; t < kSteps; ++t) {
    std::vector<int64_t> batch;
    for (int64_t j = 0; j < kBatch; ++j) {
      batch.push_back(static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(train.size()))));
    }
    const PrivateBatchGradient grads =
        ComputePerSampleGradients(*model, loss, train, batch, clipper);
    const Tensor noisy = perturber.Perturb(grads.averaged_clipped, noise_rng);

    const Tensor w = FlattenValues(params);
    const Tensor to_optimum = Sub(optimum, w);
    const double clean_norm = grads.averaged_clipped.L2Norm();
    const double noisy_norm = noisy.L2Norm();
    const double a =
        kLr * kLr * (noisy_norm * noisy_norm - clean_norm * clean_norm);
    const Tensor noise = Sub(noisy, grads.averaged_clipped);
    const double b = 2.0 * kLr * Dot(noise, to_optimum);
    item_a.Add(a);
    item_b_abs.Add(std::fabs(b));
    ed.Add(a + b);

    // Descend on the noisy gradient, as DP-SGD would.
    ApplyFlatUpdate(params, noisy, kLr);
  }
  return {item_a.mean(), item_b_abs.mean(), ed.mean()};
}

void Run() {
  PrintBanner(
      "Theorem 1 / Corollaries 1-2 (efficiency-difference decomposition)",
      "ED = eta^2*ItemA + 2*eta*ItemB; tuning shrinks ItemA only; GeoDP "
      "shrinks ItemB",
      "LR on 14x14 synthetic MNIST; w* = 600-iteration noise-free run; "
      "sigma=4, B=128, C=0.1, 100 measured steps");

  const SplitDataset data = MnistLikeSplit(1024, 128, /*seed=*/41);

  // Reference optimum: long noise-free training from the same init.
  Rng init_rng(5);
  auto reference = MakeLogisticRegression(196, 10, init_rng);
  TrainerOptions reference_options;
  reference_options.method = PerturbationMethod::kNoiseFree;
  reference_options.batch_size = 128;
  reference_options.iterations = 600;
  reference_options.learning_rate = kLr;
  reference_options.clip_threshold = kClip;
  reference_options.seed = 43;
  DpTrainer reference_trainer(reference.get(), &data.train, nullptr,
                              reference_options);
  reference_trainer.Run().value();
  const Tensor optimum = FlattenValues(reference->Parameters());

  TablePrinter table({"strategy", "mean Item A", "mean |Item B|",
                      "mean ED"});
  {
    PerturbationOptions base;
    base.clip_threshold = kClip;
    base.batch_size = kBatch;
    base.noise_multiplier = kSigma;
    const DpPerturber dp(base);
    const EdDecomposition d =
        MeasureDecomposition(data.train, optimum, dp, 47);
    table.AddRow({"DP", TablePrinter::FmtSci(d.mean_item_a),
                  TablePrinter::FmtSci(d.mean_abs_item_b),
                  TablePrinter::FmtSci(d.mean_ed)});
  }
  for (double beta : {0.01, 0.001}) {
    GeoDpOptions options;
    options.base.clip_threshold = kClip;
    options.base.batch_size = kBatch;
    options.base.noise_multiplier = kSigma;
    options.beta = beta;
    const GeoDpPerturber geo(options);
    const EdDecomposition d =
        MeasureDecomposition(data.train, optimum, geo, 47);
    table.AddRow({"GeoDP beta=" + TablePrinter::Fmt(beta, 3),
                  TablePrinter::FmtSci(d.mean_item_a),
                  TablePrinter::FmtSci(d.mean_abs_item_b),
                  TablePrinter::FmtSci(d.mean_ed)});
  }
  PrintTable(table);

  // Corollary 1: even *at* the optimum, one DP step strictly increases the
  // distance (ED > 0 in expectation because Item B vanishes and Item A is
  // positive).
  PrintBanner("Corollary 1 (DP-SGD cannot stay at the optimum)",
              "at w_t = w*, Item B = 0 in expectation but Item A > 0",
              "model set exactly to w*; measure ED of one DP step, 200 "
              "repeats");
  Rng init_rng2(5);
  auto at_optimum = MakeLogisticRegression(196, 10, init_rng2);
  SetValuesFromFlat(at_optimum->Parameters(), optimum);
  SoftmaxCrossEntropy loss;
  const FlatClipper clipper(kClip);
  PerturbationOptions base;
  base.clip_threshold = kClip;
  base.batch_size = kBatch;
  base.noise_multiplier = kSigma;
  const DpPerturber dp(base);
  Rng rng(51), noise_rng(53);
  RunningStat departure;
  for (int t = 0; t < 200; ++t) {
    std::vector<int64_t> batch;
    for (int64_t j = 0; j < kBatch; ++j) {
      batch.push_back(static_cast<int64_t>(
          rng.UniformInt(static_cast<uint64_t>(data.train.size()))));
    }
    const PrivateBatchGradient grads = ComputePerSampleGradients(
        *at_optimum, loss, data.train, batch, clipper);
    const Tensor noisy = dp.Perturb(grads.averaged_clipped, noise_rng);
    // ||w* - lr*g~* - w*||^2 - ||w* - lr*g~ - w*||^2.
    const double noisy_norm = noisy.L2Norm();
    const double clean_norm = grads.averaged_clipped.L2Norm();
    departure.Add(kLr * kLr *
                  (noisy_norm * noisy_norm - clean_norm * clean_norm));
  }
  TablePrinter corollary({"quantity", "value"});
  corollary.AddRow({"mean ED at optimum (Item A only)",
                    TablePrinter::FmtSci(departure.mean())});
  corollary.AddRow({"stderr", TablePrinter::FmtSci(departure.stderr_mean())});
  PrintTable(corollary);
}

}  // namespace
}  // namespace bench
}  // namespace geodp

int main() {
  geodp::bench::Run();
  return 0;
}
