// Figure 5: training-loss curves of logistic regression under GeoDP vs DP
// on the MNIST-like dataset. Betas/sigmas are the paper's settings
// rescaled for this repo's d and B (see EXPERIMENTS.md).
//  (a) moderate noise: batch size helps GeoDP far more than DP.
//  (b) heavy noise: too-large beta stalls GeoDP; a smaller beta rescues
//      it past DP toward the noise-free curve.
//  (c) small sigma: both methods track the noise-free curve (the paper
//      reports a residual DP gap; below our loss resolution at this
//      scale).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "common/bench_util.h"
#include "models/logistic_regression.h"
#include "stats/table.h"

namespace geodp {
namespace bench {
namespace {

constexpr int64_t kIterations = 200;
constexpr int64_t kRecordEvery = 20;
constexpr double kClip = 0.1;

std::vector<double> RunCurve(const InMemoryDataset& train,
                             PerturbationMethod method, int64_t batch,
                             double sigma, double beta, double lr) {
  Rng rng(77);  // same init for every curve
  auto model = MakeLogisticRegression(196, 10, rng);
  TrainerOptions options;
  options.method = method;
  options.batch_size = batch;
  options.iterations = kIterations;
  options.learning_rate = lr;
  options.clip_threshold = kClip;
  options.noise_multiplier = sigma;
  options.beta = beta;
  options.record_loss_every = kRecordEvery;
  options.seed = 7;
  AttachObserver(options);
  DpTrainer trainer(model.get(), &train, nullptr, options);
  return trainer.Run().value().loss_history;
}

void EmitCurves(const std::string& id, const std::string& paper_setup,
                const std::string& repro_setup,
                const std::vector<std::pair<std::string, std::vector<double>>>&
                    curves) {
  PrintBanner(id, paper_setup, repro_setup);
  std::vector<std::string> headers = {"iteration"};
  for (const auto& [name, values] : curves) headers.push_back(name);
  TablePrinter table(headers);
  const size_t points = curves.front().second.size();
  for (size_t p = 0; p < points; ++p) {
    std::vector<std::string> row;
    const int64_t iteration =
        (p + 1 == points) ? (kIterations - 1)
                          : static_cast<int64_t>(p) * kRecordEvery;
    row.push_back(std::to_string(iteration));
    for (const auto& [name, values] : curves) {
      row.push_back(TablePrinter::Fmt(values[p]));
    }
    table.AddRow(std::move(row));
  }
  PrintTable(table);
}

void Run() {
  const SplitDataset data = MnistLikeSplit(2048, 256, /*seed=*/3);
  const InMemoryDataset& train = data.train;

  // (a) sigma=1, beta=1, batch-size effect.
  EmitCurves(
      "Figure 5(a) (LR training loss, moderate noise, batch effect)",
      "d=785, sigma=1, B in {2048, 4096}; DP's curves overlap across B "
      "while GeoDP improves with B",
      "d=1970 params, 14x14 synthetic MNIST, sigma=10, B in {256, 1024}, "
      "lr=2, beta=0.01 (paper's sigma/beta rescaled for d, B; see "
      "EXPERIMENTS.md)",
      {
          {"no-noise", RunCurve(train, PerturbationMethod::kNoiseFree, 256,
                                0.0, 1.0, 2.0)},
          {"GeoDP B=256", RunCurve(train, PerturbationMethod::kGeoDp, 256,
                                   10.0, 0.01, 2.0)},
          {"GeoDP B=1024", RunCurve(train, PerturbationMethod::kGeoDp, 1024,
                                    10.0, 0.01, 2.0)},
          {"DP B=256",
           RunCurve(train, PerturbationMethod::kDp, 256, 10.0, 1.0, 2.0)},
          {"DP B=1024",
           RunCurve(train, PerturbationMethod::kDp, 1024, 10.0, 1.0, 2.0)},
      });

  // (b) large noise: beta tuning rescues GeoDP.
  EmitCurves(
      "Figure 5(b) (LR training loss, sigma=10, beta tuning)",
      "d=785, sigma=10, B=2048; GeoDP(beta=1) below-par, GeoDP(beta=0.5) "
      "overtakes DP",
      "B=512, betas {0.05, 0.01, 0.002} (paper's {1, 0.5} rescaled), lr=2",
      {
          {"no-noise", RunCurve(train, PerturbationMethod::kNoiseFree, 512,
                                0.0, 1.0, 2.0)},
          {"GeoDP beta=0.05", RunCurve(train, PerturbationMethod::kGeoDp,
                                       512, 10.0, 0.05, 2.0)},
          {"GeoDP beta=0.01", RunCurve(train, PerturbationMethod::kGeoDp,
                                       512, 10.0, 0.01, 2.0)},
          {"GeoDP beta=0.002", RunCurve(train, PerturbationMethod::kGeoDp,
                                        512, 10.0, 0.002, 2.0)},
          {"DP", RunCurve(train, PerturbationMethod::kDp, 512, 10.0, 1.0,
                          2.0)},
      });

  // (c) small noise multipliers: DP's direction bias persists.
  EmitCurves(
      "Figure 5(c) (LR training loss, small sigma, beta=1, B=256)",
      "d=785, B=256, sigma in {0.01, 0.1}; DP stays flat while GeoDP "
      "approaches noise-free",
      "same sigma grid, lr=2, beta=0.01",
      {
          {"no-noise", RunCurve(train, PerturbationMethod::kNoiseFree, 256,
                                0.0, 1.0, 2.0)},
          {"GeoDP s=0.01", RunCurve(train, PerturbationMethod::kGeoDp, 256,
                                    0.01, 0.01, 2.0)},
          {"GeoDP s=0.1", RunCurve(train, PerturbationMethod::kGeoDp, 256,
                                   0.1, 0.01, 2.0)},
          {"DP s=0.01",
           RunCurve(train, PerturbationMethod::kDp, 256, 0.01, 1.0, 2.0)},
          {"DP s=0.1",
           RunCurve(train, PerturbationMethod::kDp, 256, 0.1, 1.0, 2.0)},
      });
}

}  // namespace
}  // namespace bench
}  // namespace geodp

int main(int argc, char** argv) {
  geodp::bench::InitBenchObservability(argc, argv);
  geodp::bench::Run();
  return 0;
}
