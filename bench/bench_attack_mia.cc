// Privacy-in-practice check (paper §I motivation and §V-C2 claim):
// a loss-threshold membership-inference attack against models trained
// noise-free, with DP-SGD, and with GeoDP-SGD under the same sigma.
// Expected shape: the attack succeeds against the noise-free model
// (AUC > 0.5) and DP pushes it toward chance. GeoDP exposes the Lemma 2
// trade-off directly: its direction guarantee is (eps, delta + delta')
// with delta' <= 1 - beta, so tiny beta (great utility) leaves the
// direction nearly unprotected and the attack keeps succeeding, while
// larger beta restores protection at a utility cost. This is the
// empirical face of the paper's relaxed direction guarantee.

#include "attack/membership_inference.h"
#include "base/rng.h"
#include "common/bench_util.h"
#include "models/logistic_regression.h"
#include "stats/table.h"

namespace geodp {
namespace bench {
namespace {

struct AttackRow {
  std::string label;
  PerturbationMethod method;
  double sigma;
  double beta;
};

void Run() {
  PrintBanner(
      "Membership inference under DP vs GeoDP (supporting experiment)",
      "white-box MIA motivates DP-SGD (paper Sec. I); GeoDP claims equal "
      "protection with better utility (Sec. V-C2)",
      "Yeom-style loss-threshold attack on LR over 8x8 synthetic MNIST, "
      "80 members vs 80 non-members, 400 iterations (deliberate overfit)");

  SyntheticImageOptions options;
  options.num_examples = 160;
  options.height = 8;
  options.width = 8;
  options.pixel_noise = 0.3;
  options.seed = 31;
  InMemoryDataset members = MakeSyntheticImages(options);
  InMemoryDataset nonmembers = members.SplitTail(80);

  const std::vector<AttackRow> rows = {
      {"noise-free", PerturbationMethod::kNoiseFree, 0.0, 1.0},
      {"DP sigma=2", PerturbationMethod::kDp, 2.0, 1.0},
      {"DP sigma=4", PerturbationMethod::kDp, 4.0, 1.0},
      {"GeoDP sigma=2 beta=0.005", PerturbationMethod::kGeoDp, 2.0, 0.005},
      {"GeoDP sigma=4 beta=0.005", PerturbationMethod::kGeoDp, 4.0, 0.005},
      {"GeoDP sigma=4 beta=0.05", PerturbationMethod::kGeoDp, 4.0, 0.05},
      {"GeoDP sigma=4 beta=0.5", PerturbationMethod::kGeoDp, 4.0, 0.5},
  };

  TablePrinter table({"training", "attack AUC", "attack advantage",
                      "member loss", "non-member loss", "epsilon"});
  for (const AttackRow& row : rows) {
    Rng rng(33);
    auto model = MakeLogisticRegression(64, 10, rng);
    TrainerOptions trainer_options;
    trainer_options.method = row.method;
    trainer_options.batch_size = 40;
    trainer_options.iterations = 400;
    trainer_options.learning_rate = 3.0;
    trainer_options.clip_threshold = 1.0;
    trainer_options.noise_multiplier = row.sigma;
    trainer_options.beta = row.beta;
    trainer_options.seed = 35;
    DpTrainer trainer(model.get(), &members, nullptr, trainer_options);
    const TrainingResult training = trainer.Run().value();
    const MiaResult attack =
        RunLossThresholdAttack(*model, members, nonmembers);
    table.AddRow({row.label, TablePrinter::Fmt(attack.auc, 3),
                  TablePrinter::Fmt(attack.advantage, 3),
                  TablePrinter::Fmt(attack.mean_member_loss, 3),
                  TablePrinter::Fmt(attack.mean_nonmember_loss, 3),
                  TablePrinter::Fmt(training.epsilon, 2)});
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
