// Quickstart: train a logistic-regression model with GeoDP-SGD on the
// synthetic MNIST-like dataset and report accuracy plus the accounted
// privacy guarantee.
//
//   $ ./examples/quickstart

#include <cstdio>

#include "base/rng.h"
#include "core/privacy_region.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "optim/trainer.h"

int main() {
  using namespace geodp;

  // 1. Data: a 14x14 gray, 10-class dataset (stand-in for MNIST).
  SyntheticImageOptions data_options;
  data_options.num_examples = 1200;
  data_options.seed = 1;
  InMemoryDataset train = MakeMnistLike(data_options);
  InMemoryDataset test = train.SplitTail(200);

  // 2. Model: Flatten -> Linear(196, 10).
  Rng rng(2);
  auto model = MakeLogisticRegression(196, 10, rng);

  // 3. Private training with the geometric perturbation (Algorithm 1).
  TrainerOptions options;
  options.method = PerturbationMethod::kGeoDp;
  options.beta = 0.01;             // bounding factor: direction sensitivity
  options.batch_size = 128;
  options.iterations = 150;
  options.learning_rate = 2.0;
  options.clip_threshold = 0.1;    // paper default C
  options.noise_multiplier = 1.0;  // sigma
  options.record_loss_every = 25;
  options.seed = 3;

  DpTrainer trainer(model.get(), &train, &test, options);
  const TrainingResult result = trainer.Run().value();

  std::printf("GeoDP-SGD quickstart\n");
  std::printf("  iterations        : %lld\n",
              static_cast<long long>(options.iterations));
  std::printf("  final train loss  : %.4f\n", result.final_train_loss);
  std::printf("  test accuracy     : %.2f%%\n", result.test_accuracy * 100);
  std::printf("  epsilon (RDP)     : %.3f at delta=1e-5\n", result.epsilon);

  const GeoDpPrivacyReport report =
      AnalyzeGeoDpPrivacy(options.noise_multiplier, options.delta,
                          options.beta);
  std::printf("  direction delta'  : <= %.3f (Lemma 2, beta=%.2f)\n",
              report.delta_prime_upper_bound, options.beta);

  std::printf("\nloss curve:\n");
  for (size_t i = 0; i < result.loss_history.size(); ++i) {
    std::printf("  iter %4lld  loss %.4f\n",
                static_cast<long long>(result.loss_iterations[i]),
                result.loss_history[i]);
  }
  return 0;
}
