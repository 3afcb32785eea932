// Ablation: what to do with perturbed angles that leave their canonical
// ranges. Algorithm 1 feeds them straight to the Cartesian conversion
// (sin/cos are periodic); wrapping or clamping are plausible alternatives.
// Measures both MSEs and end-to-end LR training loss per policy.

#include "base/rng.h"
#include "common/bench_util.h"
#include "core/perturbation.h"
#include "models/logistic_regression.h"
#include "stats/table.h"

namespace geodp {
namespace bench {
namespace {

const char* HandlingName(AngleHandling handling) {
  switch (handling) {
    case AngleHandling::kNone:
      return "none (paper)";
    case AngleHandling::kWrap:
      return "wrap";
    case AngleHandling::kClamp:
      return "clamp";
  }
  return "?";
}

void Run() {
  PrintBanner(
      "Ablation: angle handling after GeoDP perturbation",
      "(design-choice ablation; not a paper table)",
      "MSE at d=512, B=256, sigma in {1, 8}, beta=0.5; plus LR training "
      "loss at sigma=8");

  const GradientDataset data = HarvestedGradients(512, /*count=*/384);

  TablePrinter mse_table({"sigma", "handling", "theta MSE", "g MSE"});
  for (double sigma : {1.0, 8.0}) {
    for (AngleHandling handling :
         {AngleHandling::kNone, AngleHandling::kWrap, AngleHandling::kClamp}) {
      GeoDpOptions options;
      options.base.clip_threshold = 0.1;
      options.base.batch_size = 256;
      options.base.noise_multiplier = sigma;
      options.beta = 0.5;
      options.angle_handling = handling;
      const GeoDpPerturber perturber(options);
      const MseResult mse =
          MeasurePerturbationMse(data, perturber, 256, 0.1, 24, 43);
      mse_table.AddRow({TablePrinter::Fmt(sigma, 1), HandlingName(handling),
                        TablePrinter::FmtSci(mse.direction_mse),
                        TablePrinter::FmtSci(mse.gradient_mse)});
    }
  }
  PrintTable(mse_table);

  const SplitDataset split = MnistLikeSplit(512, 128, /*seed=*/12);
  TablePrinter train_table({"handling", "final train loss", "test acc"});
  for (AngleHandling handling :
       {AngleHandling::kNone, AngleHandling::kWrap, AngleHandling::kClamp}) {
    Rng rng(77);
    auto model = MakeLogisticRegression(196, 10, rng);
    TrainerOptions options;
    options.method = PerturbationMethod::kGeoDp;
    options.batch_size = 128;
    options.iterations = 100;
    options.learning_rate = 2.0;
    options.noise_multiplier = 8.0;
    options.beta = 0.02;
    options.angle_handling = handling;
    options.seed = 19;
    DpTrainer trainer(model.get(), &split.train, &split.test, options);
    const TrainingResult result = trainer.Run().value();
    train_table.AddRow({HandlingName(handling),
                        TablePrinter::Fmt(result.final_train_loss),
                        TablePrinter::Fmt(result.test_accuracy * 100, 2) +
                            "%"});
  }
  PrintTable(train_table);
}

}  // namespace
}  // namespace bench
}  // namespace geodp

int main() {
  geodp::bench::Run();
  return 0;
}
