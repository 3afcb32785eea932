// Ablation: clipping strategy (flat vs AUTO-S vs PSAC) under both DP and
// GeoDP on logistic regression. Confirms the paper's claim that clipping
// optimizations help the magnitude but cannot rescue DP's direction error
// (Corollary 2), while they compose with GeoDP additively.

#include "base/rng.h"
#include "common/bench_util.h"
#include "models/logistic_regression.h"
#include "stats/table.h"

namespace geodp {
namespace bench {
namespace {

void Run() {
  PrintBanner(
      "Ablation: clipping strategy x perturbation method (LR)",
      "(supports Corollary 2; Table II/III columns AUTO-S and PSAC)",
      "14x14 synthetic MNIST, B=128, sigma=1, beta=0.01, 120 iterations");

  const SplitDataset split = MnistLikeSplit(768, 192, /*seed=*/14);

  TablePrinter table({"clipper", "method", "final train loss", "test acc"});
  for (const std::string clipper : {"flat", "AUTO-S", "PSAC"}) {
    for (PerturbationMethod method :
         {PerturbationMethod::kDp, PerturbationMethod::kGeoDp}) {
      Rng rng(88);
      auto model = MakeLogisticRegression(196, 10, rng);
      TrainerOptions options;
      options.method = method;
      options.batch_size = 128;
      options.iterations = 120;
      options.learning_rate = 2.0;
      options.clip_threshold = 0.1;
      options.noise_multiplier = 1.0;
      options.beta = 0.01;
      options.clipper = clipper;
      options.seed = 23;
      DpTrainer trainer(model.get(), &split.train, &split.test, options);
      const TrainingResult result = trainer.Run().value();
      table.AddRow({clipper, PerturbationMethodName(method),
                    TablePrinter::Fmt(result.final_train_loss),
                    TablePrinter::Fmt(result.test_accuracy * 100, 2) + "%"});
    }
  }
  PrintTable(table);
}

}  // namespace
}  // namespace bench
}  // namespace geodp

int main() {
  geodp::bench::Run();
  return 0;
}
