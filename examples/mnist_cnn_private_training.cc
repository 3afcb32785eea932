// Example: private CNN training on the MNIST-like dataset, comparing
// noise-free SGD, traditional DP-SGD and GeoDP-SGD under the same noise
// multiplier, with the DP-Adam extension thrown in.
//
//   $ ./examples/mnist_cnn_private_training

#include <cstdio>
#include <string>

#include "base/rng.h"
#include "data/synthetic_images.h"
#include "models/cnn.h"
#include "optim/trainer.h"

namespace {

struct RunSpec {
  std::string label;
  geodp::PerturbationMethod method;
  double beta;
  bool use_adam;
};

}  // namespace

int main() {
  using namespace geodp;

  SyntheticImageOptions data_options;
  data_options.num_examples = 900;
  data_options.seed = 21;
  InMemoryDataset train = MakeMnistLike(data_options);
  InMemoryDataset test = train.SplitTail(180);

  const double kSigma = 4.0;
  const RunSpec specs[] = {
      {"noise-free SGD", PerturbationMethod::kNoiseFree, 1.0, false},
      {"DP-SGD", PerturbationMethod::kDp, 1.0, false},
      {"GeoDP-SGD (beta=0.001)", PerturbationMethod::kGeoDp, 0.001, false},
      {"GeoDP-Adam (beta=0.001)", PerturbationMethod::kGeoDp, 0.001, true},
  };

  std::printf("CNN on synthetic MNIST, sigma=%.2f, C=0.1, B=128\n\n", kSigma);
  std::printf("%-24s %12s %12s %10s\n", "method", "train loss", "test acc",
              "epsilon");
  for (const RunSpec& spec : specs) {
    Rng rng(5);  // identical initialization across methods
    CnnConfig config;
    auto model = MakeCnn(config, rng);
    TrainerOptions options;
    options.method = spec.method;
    options.beta = spec.beta;
    options.use_adam = spec.use_adam;
    options.batch_size = 128;
    options.iterations = 100;
    options.learning_rate = spec.use_adam ? 0.02 : 3.0;
    options.clip_threshold = 0.1;
    options.noise_multiplier =
        spec.method == PerturbationMethod::kNoiseFree ? 0.0 : kSigma;
    options.seed = 6;
    DpTrainer trainer(model.get(), &train, &test, options);
    const TrainingResult result = trainer.Run().value();
    std::printf("%-24s %12.4f %11.2f%% %10.3f\n", spec.label.c_str(),
                result.final_train_loss, result.test_accuracy * 100,
                result.epsilon);
  }
  std::printf(
      "\nExpected ordering: noise-free >= GeoDP > DP at matched sigma.\n");
  return 0;
}
