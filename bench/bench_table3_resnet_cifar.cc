// Table III: ResNet test accuracy on the CIFAR-like dataset under DP vs
// GeoDP x techniques. The paper's sigma in {0.1, 0.01} maps to {4, 1} at
// this repo's batch sizes and model dimension (see the noise-to-signal
// note in bench_table2 and EXPERIMENTS.md); its beta in {1, 0.1} maps to
// {0.002, 0.0005}.
// Expected shape: GeoDP beats DP at both betas, the smaller beta widens
// the gap, techniques add small increments, and every method converges
// toward the noise-free reference as sigma shrinks.

#include <cstdint>
#include <string>

#include "base/rng.h"
#include "common/bench_util.h"
#include "models/resnet.h"
#include "stats/table.h"

namespace geodp {
namespace bench {
namespace {

struct Config {
  std::string label;
  PerturbationMethod method = PerturbationMethod::kDp;
  int64_t batch = 96;
  double beta = 1.0;
  std::string clipper = "flat";
  bool is = false;
  bool sur = false;
};

constexpr int64_t kIterations = 80;
constexpr double kClip = 0.1;
constexpr double kLr = 3.0;

double RunAccuracy(const SplitDataset& data, const Config& config,
                   double sigma) {
  Rng rng(66);
  ResNetConfig resnet;
  resnet.width = 4;
  auto model = MakeResNet(resnet, rng);
  TrainerOptions options;
  options.method = config.method;
  options.batch_size = config.batch;
  options.iterations = kIterations;
  options.learning_rate = kLr;
  options.clip_threshold = kClip;
  options.noise_multiplier = sigma;
  options.beta = config.beta;
  options.clipper = config.clipper;
  options.importance_sampling = config.is;
  options.selective_update = config.sur;
  options.seed = 111;
  DpTrainer trainer(model.get(), &data.train, &data.test, options);
  return trainer.Run().value().test_accuracy;
}

void Run() {
  PrintBanner(
      "Table III (ResNet on CIFAR-10: test accuracy of DP vs GeoDP)",
      "sigma in {0.1, 0.01}, B in {8192, 16384}, beta in {1, 0.1}",
      "sigma in {4, 1} (iteration-averaged noise-to-signal matched), B in "
      "{48, 96}, beta in {0.002, 0.0005}, width-4 ResNet with 3 residual "
      "blocks, 16x16 synthetic CIFAR, 80 iterations");

  const SplitDataset data = CifarLikeSplit(768, 192, /*seed=*/9);

  Config noise_free;
  noise_free.label = "noise-free";
  noise_free.method = PerturbationMethod::kNoiseFree;
  const double reference = RunAccuracy(data, noise_free, 0.0);

  const std::vector<Config> configs = {
      {"DP (B=48)", PerturbationMethod::kDp, 48, 1.0, "flat", false, false},
      {"DP (B=96)", PerturbationMethod::kDp, 96, 1.0, "flat", false, false},
      {"DP+IS (B=96)", PerturbationMethod::kDp, 96, 1.0, "flat", true,
       false},
      {"DP+SUR (B=96)", PerturbationMethod::kDp, 96, 1.0, "flat", false,
       true},
      {"DP+AUTO-S (B=96)", PerturbationMethod::kDp, 96, 1.0, "AUTO-S",
       false, false},
      {"DP+PSAC (B=96)", PerturbationMethod::kDp, 96, 1.0, "PSAC", false,
       false},
      {"DP+SUR+PSAC (B=96)", PerturbationMethod::kDp, 96, 1.0, "PSAC",
       false, true},
      {"GeoDP (B=48, beta=0.002)", PerturbationMethod::kGeoDp, 48, 0.002,
       "flat", false, false},
      {"GeoDP (B=96, beta=0.002)", PerturbationMethod::kGeoDp, 96, 0.002,
       "flat", false, false},
      {"GeoDP (B=96, beta=0.0005)", PerturbationMethod::kGeoDp, 96, 0.0005,
       "flat", false, false},
      {"GeoDP+IS (B=96)", PerturbationMethod::kGeoDp, 96, 0.0005, "flat",
       true, false},
      {"GeoDP+SUR (B=96)", PerturbationMethod::kGeoDp, 96, 0.0005, "flat",
       false, true},
      {"GeoDP+AUTO-S (B=96)", PerturbationMethod::kGeoDp, 96, 0.0005,
       "AUTO-S", false, false},
      {"GeoDP+PSAC (B=96)", PerturbationMethod::kGeoDp, 96, 0.0005, "PSAC",
       false, false},
      {"GeoDP+SUR+PSAC (B=96)", PerturbationMethod::kGeoDp, 96, 0.0005,
       "PSAC", false, true},
  };

  TablePrinter table({"method", "acc @ sigma=4", "acc @ sigma=1"});
  table.AddRow({"noise-free", TablePrinter::Fmt(reference * 100, 2) + "%",
                TablePrinter::Fmt(reference * 100, 2) + "%"});
  for (const Config& config : configs) {
    const double hi = RunAccuracy(data, config, 4.0);
    const double lo = RunAccuracy(data, config, 1.0);
    table.AddRow({config.label, TablePrinter::Fmt(hi * 100, 2) + "%",
                  TablePrinter::Fmt(lo * 100, 2) + "%"});
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
