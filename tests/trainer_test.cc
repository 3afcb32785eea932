// Integration tests for the end-to-end DpTrainer: convergence, method
// equivalences at sigma = 0, privacy accounting, and the IS / SUR / Adam
// code paths.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>

#include "base/crc32.h"
#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/thread_pool.h"
#include "ckpt/checkpoint.h"
#include "data/synthetic_images.h"
#include "models/cnn.h"
#include "models/logistic_regression.h"
#include "models/resnet.h"
#include "nn/parameter.h"
#include "obs/step_observer.h"
#include "optim/dp_sgd.h"
#include "optim/trainer.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

// Small, fairly easy dataset shared by the trainer tests.
InMemoryDataset MakeTrainSet(int64_t n, uint64_t seed) {
  SyntheticImageOptions options;
  options.num_examples = n;
  options.height = 8;
  options.width = 8;
  options.pixel_noise = 0.15;
  options.max_shift = 1;
  options.label_noise = 0.0;
  options.seed = seed;
  return MakeSyntheticImages(options);
}

std::unique_ptr<Sequential> MakeModel(uint64_t seed) {
  Rng rng(seed);
  return MakeLogisticRegression(64, 10, rng);
}

TEST(DpTrainerTest, NoiseFreeTrainingConverges) {
  const InMemoryDataset train = MakeTrainSet(200, 1);
  auto model = MakeModel(2);
  const double before = EvaluateMeanLoss(*model, train);

  TrainerOptions options;
  options.method = PerturbationMethod::kNoiseFree;
  options.batch_size = 32;
  options.iterations = 120;
  options.learning_rate = 2.0;
  options.clip_threshold = 0.5;
  options.seed = 3;
  DpTrainer trainer(model.get(), &train, &train, options);
  const TrainingResult result = trainer.Run().value();

  EXPECT_LT(result.final_train_loss, before * 0.7);
  EXPECT_GT(result.test_accuracy, 0.5);
  EXPECT_EQ(result.epsilon, 0.0);  // no privacy spend without noise
}

TEST(DpTrainerTest, DpAndGeoDpMatchNoiseFreeAtSigmaZero) {
  const InMemoryDataset train = MakeTrainSet(64, 4);

  auto run = [&](PerturbationMethod method) {
    auto model = MakeModel(5);  // identical init via same seed
    TrainerOptions options;
    options.method = method;
    options.batch_size = 16;
    options.iterations = 20;
    options.learning_rate = 1.0;
    options.noise_multiplier = 0.0;
    options.seed = 6;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    trainer.Run().value();
    return FlattenValues(model->Parameters());
  };

  const Tensor w_none = run(PerturbationMethod::kNoiseFree);
  const Tensor w_dp = run(PerturbationMethod::kDp);
  const Tensor w_geo = run(PerturbationMethod::kGeoDp);
  EXPECT_LT(MaxAbsDiff(w_none, w_dp), 1e-5);
  // GeoDP round-trips through spherical coordinates: equal up to the
  // float32 conversion error.
  EXPECT_LT(MaxAbsDiff(w_none, w_geo), 1e-3);
}

TEST(DpTrainerTest, AccountantReportsPositiveEpsilon) {
  const InMemoryDataset train = MakeTrainSet(100, 7);
  auto model = MakeModel(8);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.batch_size = 20;
  options.iterations = 30;
  options.learning_rate = 1.0;
  options.noise_multiplier = 1.0;
  options.seed = 9;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();
  EXPECT_GT(result.epsilon, 0.0);

  // More iterations -> more epsilon.
  auto model2 = MakeModel(8);
  options.iterations = 60;
  DpTrainer trainer2(model2.get(), &train, nullptr, options);
  EXPECT_GT(trainer2.Run().value().epsilon, result.epsilon);
}

TEST(DpTrainerTest, GeoDpWithSmallBetaBeatsDpUnderHeavyNoise) {
  // The paper's headline claim at training level: under identical noise,
  // GeoDP with a small bounding factor achieves lower loss than DP.
  const InMemoryDataset train = MakeTrainSet(300, 10);

  auto run = [&](PerturbationMethod method, double beta) {
    auto model = MakeModel(11);
    TrainerOptions options;
    options.method = method;
    options.beta = beta;
    options.batch_size = 64;
    options.iterations = 80;
    options.learning_rate = 2.0;
    options.clip_threshold = 0.1;
    options.noise_multiplier = 4.0;
    options.seed = 12;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    return trainer.Run().value().final_train_loss;
  };

  const double loss_dp = run(PerturbationMethod::kDp, 0.1);
  const double loss_geo = run(PerturbationMethod::kGeoDp, 0.002);
  EXPECT_LT(loss_geo, loss_dp);
}

TEST(DpTrainerTest, LossHistoryRecorded) {
  const InMemoryDataset train = MakeTrainSet(64, 13);
  auto model = MakeModel(14);
  TrainerOptions options;
  options.method = PerturbationMethod::kNoiseFree;
  options.batch_size = 16;
  options.iterations = 25;
  options.learning_rate = 0.5;
  options.record_loss_every = 5;
  options.seed = 15;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();
  ASSERT_EQ(result.loss_history.size(), result.loss_iterations.size());
  EXPECT_GE(result.loss_history.size(), 5u);
  EXPECT_EQ(result.loss_iterations.front(), 0);
  EXPECT_EQ(result.loss_iterations.back(), 24);
}

TEST(DpTrainerTest, ImportanceSamplingPathRuns) {
  const InMemoryDataset train = MakeTrainSet(80, 16);
  auto model = MakeModel(17);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.importance_sampling = true;
  options.batch_size = 16;
  options.iterations = 15;
  options.learning_rate = 0.5;
  options.noise_multiplier = 0.5;
  options.seed = 18;
  DpTrainer trainer(model.get(), &train, &train, options);
  const TrainingResult result = trainer.Run().value();
  EXPECT_GE(result.test_accuracy, 0.0);
}

TEST(DpTrainerTest, SelectiveUpdateRejectsBadSteps) {
  const InMemoryDataset train = MakeTrainSet(80, 19);
  auto model = MakeModel(20);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.selective_update = true;
  options.batch_size = 16;
  options.iterations = 20;
  options.learning_rate = 5.0;       // deliberately unstable
  options.noise_multiplier = 5.0;    // heavy noise -> many rejections
  options.sur_tolerance = 0.0;       // strict test to force rejections
  options.seed = 21;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();
  // DPSUR semantics: rejected attempts are retried up to 3x the iteration
  // budget; accepted updates never exceed the requested iterations.
  EXPECT_LE(result.sur_accepted, 20);
  EXPECT_LE(result.sur_accepted + result.sur_rejected, 60);
  EXPECT_GT(result.sur_rejected, 0);
}

TEST(DpTrainerTest, SelectiveUpdateHelpsUnderHeavyNoise) {
  const InMemoryDataset train = MakeTrainSet(150, 22);
  auto run = [&](bool sur) {
    auto model = MakeModel(23);
    TrainerOptions options;
    options.method = PerturbationMethod::kDp;
    options.selective_update = sur;
    options.batch_size = 32;
    options.iterations = 40;
    options.learning_rate = 2.0;
    options.noise_multiplier = 4.0;
    options.seed = 24;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    return trainer.Run().value().final_train_loss;
  };
  EXPECT_LE(run(true), run(false) * 1.05);
}

TEST(DpTrainerTest, AdamPathRuns) {
  const InMemoryDataset train = MakeTrainSet(64, 25);
  auto model = MakeModel(26);
  const double before = EvaluateMeanLoss(*model, train);
  TrainerOptions options;
  options.method = PerturbationMethod::kGeoDp;
  options.beta = 0.05;
  options.use_adam = true;
  options.batch_size = 16;
  options.iterations = 40;
  options.learning_rate = 0.05;
  options.noise_multiplier = 0.5;
  options.seed = 27;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();
  EXPECT_LT(result.final_train_loss, before);
}

TEST(DpTrainerTest, PoissonSamplingPathTrains) {
  const InMemoryDataset train = MakeTrainSet(200, 31);
  auto model = MakeModel(32);
  const double before = EvaluateMeanLoss(*model, train);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.poisson_sampling = true;
  options.batch_size = 32;  // expected lot size; realized sizes vary
  options.iterations = 60;
  options.learning_rate = 1.0;
  options.noise_multiplier = 0.5;
  options.seed = 33;
  DpTrainer trainer(model.get(), &train, &train, options);
  const TrainingResult result = trainer.Run().value();
  EXPECT_LT(result.final_train_loss, before);
  EXPECT_GT(result.epsilon, 0.0);
}

TEST(DpTrainerTest, PoissonMatchesFixedBatchRoughly) {
  // Same noise and budget: Poisson and fixed-batch training should land in
  // the same loss ballpark (they differ only in sampling realization).
  const InMemoryDataset train = MakeTrainSet(200, 34);
  auto run = [&](bool poisson) {
    auto model = MakeModel(35);
    TrainerOptions options;
    options.method = PerturbationMethod::kDp;
    options.poisson_sampling = poisson;
    options.batch_size = 32;
    options.iterations = 80;
    options.learning_rate = 1.0;
    options.noise_multiplier = 0.5;
    options.seed = 36;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    return trainer.Run().value().final_train_loss;
  };
  const double fixed = run(false);
  const double poisson = run(true);
  EXPECT_LT(poisson, fixed * 1.3);
  EXPECT_GT(poisson, fixed * 0.7);
}

TEST(DpTrainerTest, EmptyPoissonLotsAreCountedNotRecorded) {
  // Tiny dataset and lot size: sampling rate 1/8 gives P(empty lot) =
  // (7/8)^8 ~ 0.34, so a 60-step run is all but guaranteed to draw empty
  // lots. They used to push a spurious 0.0 into loss_history; now they are
  // counted in empty_lots and excluded from the loss record.
  const InMemoryDataset train = MakeTrainSet(8, 37);
  auto model = MakeModel(38);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.poisson_sampling = true;
  options.batch_size = 1;
  options.iterations = 60;
  options.learning_rate = 0.1;
  options.noise_multiplier = 1.0;
  options.record_loss_every = 1;  // record every non-empty step
  options.seed = 39;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();

  EXPECT_GT(result.empty_lots, 0);
  // Cross-entropy is strictly positive, so any 0.0 entry could only be the
  // old empty-lot placeholder.
  for (const double loss : result.loss_history) EXPECT_GT(loss, 0.0);
  EXPECT_LT(result.loss_history.size(),
            static_cast<size_t>(options.iterations));
}

TEST(DpTrainerTest, AdaptiveBetaIgnoresEmptyPoissonLots) {
  // A zero-magnitude gradient has no direction; feeding its spherical form
  // to the adaptive-beta controller used to poison the direction envelope.
  // The controller must now see only non-empty lots and keep beta in (0, 1].
  const InMemoryDataset train = MakeTrainSet(8, 40);
  auto model = MakeModel(41);
  TrainerOptions options;
  options.method = PerturbationMethod::kGeoDp;
  options.adaptive_beta = true;
  options.poisson_sampling = true;
  options.batch_size = 1;
  options.iterations = 40;
  options.learning_rate = 0.1;
  options.noise_multiplier = 0.5;
  options.beta = 0.1;
  options.seed = 42;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();

  EXPECT_GT(result.empty_lots, 0);
  EXPECT_GT(result.final_beta, 0.0);
  EXPECT_LE(result.final_beta, 1.0);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

TEST(DpTrainerTest, DeterministicGivenSeed) {
  const InMemoryDataset train = MakeTrainSet(64, 28);
  auto run = [&]() {
    auto model = MakeModel(29);
    TrainerOptions options;
    options.method = PerturbationMethod::kGeoDp;
    options.beta = 0.1;
    options.batch_size = 16;
    options.iterations = 10;
    options.learning_rate = 0.5;
    options.noise_multiplier = 1.0;
    options.seed = 30;
    DpTrainer trainer(model.get(), &train, nullptr, options);
    trainer.Run().value();
    return FlattenValues(model->Parameters());
  };
  EXPECT_TRUE(AllClose(run(), run()));
}

// Expects Run() to fail with the given code and a message mentioning
// `needle`, without aborting the process.
void ExpectInvalid(const InMemoryDataset& train, TrainerOptions options,
                   const std::string& needle) {
  auto model = MakeModel(2);
  DpTrainer trainer(model.get(), &train, nullptr, options);
  StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_FALSE(run.ok()) << "expected rejection for: " << needle;
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find(needle), std::string::npos)
      << "message was: " << run.status().message();
}

TEST(DpTrainerTest, InvalidOptionsReturnDescriptiveStatus) {
  const InMemoryDataset train = MakeTrainSet(32, 1);
  TrainerOptions good;
  good.batch_size = 16;
  good.iterations = 5;

  TrainerOptions options = good;
  options.batch_size = 0;
  ExpectInvalid(train, options, "batch_size");

  options = good;
  options.batch_size = 1000;  // exceeds dataset size
  ExpectInvalid(train, options, "batch_size");

  options = good;
  options.iterations = 0;
  ExpectInvalid(train, options, "iterations");

  options = good;
  options.learning_rate = -1.0;
  ExpectInvalid(train, options, "learning_rate");

  options = good;
  options.noise_multiplier = -0.5;
  ExpectInvalid(train, options, "noise_multiplier");

  options = good;
  options.clip_threshold = 0.0;
  ExpectInvalid(train, options, "clip_threshold");

  options = good;
  options.beta = 1.5;
  ExpectInvalid(train, options, "beta");

  options = good;
  options.checkpoint_every = 4;  // no checkpoint_dir
  ExpectInvalid(train, options, "checkpoint_dir");

  options = good;
  options.selective_update = true;  // its accept test is not accounted
  options.epsilon_budget = 2.0;
  ExpectInvalid(train, options, "epsilon_budget");

  options = good;
  options.importance_sampling = true;  // a Poisson lot ignores the weights
  options.poisson_sampling = true;
  ExpectInvalid(train, options, "poisson_sampling");
}

// An importance lot is drawn with replacement by private-loss weights, so
// the accountant's epsilon does not describe it: a budget is refused, and
// without one the run goes ahead.
TEST(DpTrainerTest, ImportanceSamplingWithEpsilonBudgetIsRefused) {
  const InMemoryDataset train = MakeTrainSet(32, 1);
  TrainerOptions options;
  options.batch_size = 16;
  options.iterations = 5;
  options.importance_sampling = true;
  options.epsilon_budget = 2.0;
  ExpectInvalid(train, options, "importance_sampling");

  options.epsilon_budget = 0.0;
  auto model = MakeModel(2);
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const StatusOr<TrainingResult> run = trainer.Run();
  EXPECT_TRUE(run.ok()) << run.status().ToString();
}

TEST(DpTrainerTest, EmptyDatasetIsRejectedNotCrashed) {
  const InMemoryDataset empty;
  auto model = MakeModel(2);
  TrainerOptions options;
  options.batch_size = 16;
  options.iterations = 5;
  DpTrainer trainer(model.get(), &empty, nullptr, options);
  StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(DpTrainerTest, NonFiniteSamplesAreSkippedNotPropagated) {
  // Rig the dataset: one example with an Inf pixel (blows up the loss) and
  // one with a NaN pixel (poisons its gradient). With batch == dataset
  // size both appear in every lot; the guard must drop them while the
  // remaining samples keep training, and the model must stay finite.
  InMemoryDataset train;
  Rng rng(11);
  for (int i = 0; i < 24; ++i) {
    Tensor image = Tensor::Randn({1, 8, 8}, rng);
    if (i == 3) image[5] = std::numeric_limits<float>::infinity();
    if (i == 7) image[9] = std::numeric_limits<float>::quiet_NaN();
    train.Add(std::move(image), i % 10);
  }

  auto model = MakeModel(2);
  CollectingStepObserver observer;
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.batch_size = 24;
  options.iterations = 8;
  options.learning_rate = 0.5;
  options.noise_multiplier = 0.5;
  options.seed = 13;
  options.step_observer = &observer;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Both poisoned samples are skipped on every one of the 8 steps.
  EXPECT_EQ(run.value().nonfinite_skipped, 16);
  int64_t observed = 0;
  for (const StepRecord& record : observer.records()) {
    observed += record.nonfinite_skipped;
  }
  EXPECT_EQ(observed, run.value().nonfinite_skipped);

  // Every weight is still finite, and the clean samples actually trained.
  const Tensor weights = FlattenValues(model->Parameters());
  for (int64_t i = 0; i < weights.numel(); ++i) {
    ASSERT_TRUE(std::isfinite(weights[i])) << "weight " << i;
  }
  for (const double loss : run.value().loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

// -- Golden configuration matrix ----------------------------------------
//
// Pins what a trained model *is* across the option space: a
// pairwise-covering set of configurations over method x clip mode x
// sampler x optimizer x SUR x adaptive beta x model, each trained for 20
// steps on a tiny task. Every row records, per SIMD tier, the CRC-32 of
// the final weights, of the JSONL telemetry bytes and of the printed
// epsilon's bits, and must reproduce them at 1 and 4 threads. A change
// that moves a row must show that row in its diff.

enum class Sampling { kUniform, kPoisson, kImportance };
enum class ModelKind { kLr, kCnn, kResNet };

struct MatrixRow {
  PerturbationMethod method;
  const char* clip_mode;
  Sampling sampling;
  bool adam;
  bool sur;
  bool adaptive_beta;
  ModelKind model;
  int64_t batch_size;
  // Indexed by SimdTier: scalar, avx2.
  std::array<uint32_t, 2> weights_crc;
  std::array<uint32_t, 2> jsonl_crc;
  std::array<uint32_t, 2> epsilon_crc;
};

constexpr int64_t kMatrixExamples = 32;
constexpr int64_t kMatrixSteps = 20;

std::unique_ptr<Sequential> MakeMatrixModel(ModelKind kind) {
  Rng rng(77);
  switch (kind) {
    case ModelKind::kLr:
      return MakeLogisticRegression(64, 10, rng);
    case ModelKind::kCnn: {
      CnnConfig config;
      config.image_size = 8;
      config.conv1_channels = 2;
      config.conv2_channels = 3;
      return MakeCnn(config, rng);
    }
    case ModelKind::kResNet: {
      ResNetConfig config;
      config.in_channels = 1;
      config.image_size = 8;
      config.width = 2;
      config.num_blocks = 2;
      return MakeResNet(config, rng);
    }
  }
  return nullptr;
}

std::string RowName(const MatrixRow& row) {
  static const char* const kSampling[] = {"uniform", "poisson", "is"};
  static const char* const kModel[] = {"lr", "cnn", "resnet"};
  std::string name = row.method == PerturbationMethod::kGeoDp ? "geodp" : "dp";
  name += "/" + std::string(row.clip_mode);
  name += "/" + std::string(kSampling[static_cast<int>(row.sampling)]);
  name += row.adam ? "/adam" : "/sgd";
  if (row.sur) name += "/sur";
  if (row.adaptive_beta) name += "/adaptive";
  name += "/" + std::string(kModel[static_cast<int>(row.model)]);
  return name + "/B" + std::to_string(row.batch_size);
}

struct MatrixOutput {
  uint32_t weights_crc = 0;
  uint32_t jsonl_crc = 0;
  uint32_t epsilon_crc = 0;
};

MatrixOutput RunMatrixRow(const InMemoryDataset& train, const MatrixRow& row) {
  auto model = MakeMatrixModel(row.model);
  CollectingStepObserver observer;
  TrainerOptions options;
  options.method = row.method;
  options.clip_mode = row.clip_mode;
  options.poisson_sampling = row.sampling == Sampling::kPoisson;
  options.importance_sampling = row.sampling == Sampling::kImportance;
  options.use_adam = row.adam;
  options.selective_update = row.sur;
  options.adaptive_beta = row.adaptive_beta;
  options.batch_size = row.batch_size;
  options.iterations = kMatrixSteps;
  options.learning_rate = row.adam ? 0.05 : 0.5;
  options.clip_threshold = 0.5;
  options.noise_multiplier = 1.0;
  options.beta = 0.1;
  options.sur_tolerance = 0.0;
  options.sur_eval_examples = 16;
  options.seed = 5;
  options.step_observer = &observer;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();

  MatrixOutput out;
  const Tensor weights = FlattenValues(model->Parameters());
  const size_t bytes = static_cast<size_t>(weights.numel()) * sizeof(float);
  out.weights_crc = Crc32(weights.data(), bytes);
  std::string jsonl;
  for (const StepRecord& record : observer.records()) {
    jsonl += StepRecordToJson(record) + "\n";
  }
  out.jsonl_crc = Crc32(jsonl.data(), jsonl.size());
  out.epsilon_crc = Crc32(&result.epsilon, sizeof(result.epsilon));
  return out;
}

TEST(GoldenMatrixTest, EveryRowReproducesItsFingerprintsPerTierAndThreads) {
  constexpr PerturbationMethod kDp = PerturbationMethod::kDp;
  constexpr PerturbationMethod kGeoDp = PerturbationMethod::kGeoDp;
  constexpr Sampling kUniform = Sampling::kUniform;
  constexpr Sampling kPoisson = Sampling::kPoisson;
  constexpr Sampling kIs = Sampling::kImportance;
  constexpr ModelKind kLr = ModelKind::kLr;
  constexpr ModelKind kCnn = ModelKind::kCnn;
  constexpr ModelKind kResNet = ModelKind::kResNet;
  const char* const kMat = "materialize";
  const char* const kGhost = "ghost";
  // Columns: method, clip mode, sampler, adam, sur, adaptive beta, model,
  // batch; then {scalar, avx2} CRCs of weights, JSONL and epsilon.
  // clang-format off
  const std::vector<MatrixRow> rows = {
    {kDp,    kMat,   kUniform, false, false, false, kLr,     8,
     {0x9e9e9a78u, 0xcb0a9f8cu}, {0x9b174e33u, 0x51cf0de5u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kMat,   kPoisson, true,  true,  true,  kCnn,    8,
     {0x95320ed0u, 0x446b820fu}, {0xe5992857u, 0x3441f840u}, {0xfca7de36u, 0xfca7de36u}},
    {kDp,    kGhost, kIs,      false, true,  false, kCnn,    8,
     {0x640ded3fu, 0xe9bb28cdu}, {0x2e02d1beu, 0x9c079682u}, {0x8ab99315u, 0x8ab99315u}},
    {kGeoDp, kGhost, kIs,      true,  false, true,  kLr,     8,
     {0x90f812a3u, 0x73f5b5ffu}, {0x74bf6b1au, 0x39705254u}, {0x883f8081u, 0x883f8081u}},
    {kDp,    kMat,   kPoisson, true,  false, false, kResNet, 8,
     {0x4de97899u, 0xb369dd8eu}, {0xf7928b02u, 0x1ed3ca07u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kMat,   kUniform, false, true,  true,  kResNet, 8,
     {0x99af0cd3u, 0x0aa90f73u}, {0xd4588d47u, 0x6e12bd77u}, {0xca0c692du, 0xca0c692du}},
    {kGeoDp, kGhost, kUniform, true,  false, false, kCnn,    8,
     {0xe8ce8347u, 0xee526872u}, {0x26193d24u, 0xc2ea21e6u}, {0x883f8081u, 0x883f8081u}},
    {kDp,    kGhost, kPoisson, false, true,  false, kLr,     8,
     {0x89d6b5a5u, 0x4a4b55ebu}, {0xb7d11f0du, 0x23b12d8eu}, {0x11c551a4u, 0x11c551a4u}},
    {kDp,    kMat,   kIs,      false, false, false, kResNet, 8,
     {0x98f7759eu, 0x3d88cbd9u}, {0xeb0f4e99u, 0x2fd85005u}, {0x883f8081u, 0x883f8081u}},
    {kDp,    kMat,   kUniform, true,  false, false, kLr,     8,
     {0xdf5acf34u, 0xa3e805fau}, {0x21b0036bu, 0x1a7bdc94u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kMat,   kPoisson, false, false, false, kLr,     8,
     {0xc5a514f4u, 0x42cec11bu}, {0xa5d9a963u, 0x47ce2213u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kMat,   kIs,      false, false, false, kLr,     8,
     {0xef5cf6d7u, 0x5ddc17d2u}, {0x67b15ec1u, 0x087edd20u}, {0x883f8081u, 0x883f8081u}},
    {kDp,    kGhost, kIs,      true,  false, false, kLr,     8,
     {0x64fe0c93u, 0x1109d9d2u}, {0x265c56e3u, 0xdf835eb6u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kGhost, kPoisson, false, false, true,  kLr,     8,
     {0x5f031e35u, 0x007f6733u}, {0x6e2a03ffu, 0x634b1780u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kGhost, kUniform, false, false, true,  kCnn,    8,
     {0xdb9f19c0u, 0x270d4336u}, {0x62e42380u, 0xce1d6b80u}, {0x883f8081u, 0x883f8081u}},
    {kDp,    kGhost, kPoisson, true,  false, false, kCnn,    8,
     {0xb36791d2u, 0x09297b60u}, {0x4c8995f9u, 0x4b8e5369u}, {0x883f8081u, 0x883f8081u}},
    {kGeoDp, kMat,   kUniform, true,  true,  false, kLr,     8,
     {0x00134a50u, 0x9951448fu}, {0xa00a19f9u, 0x4f4479dbu}, {0x6eb80025u, 0x6eb80025u}},
    {kDp,    kMat,   kPoisson, false, false, false, kLr,     1,
     {0x35a5f25du, 0x44ce88d9u}, {0x85a08f8fu, 0xbb6828d3u}, {0x0007d0feu, 0x0007d0feu}},
    {kGeoDp, kGhost, kPoisson, true,  false, true,  kLr,     1,
     {0xedf52a25u, 0x61f8b214u}, {0xa3af5035u, 0x76a6e26du}, {0x0007d0feu, 0x0007d0feu}},
    {kGeoDp, kMat,   kIs,      true,  true,  true,  kCnn,    8,
     {0x145cfb0cu, 0x3df70664u}, {0xb2f24956u, 0x76226076u}, {0x6eb80025u, 0x6eb80025u}},
    {kGeoDp, kGhost, kPoisson, false, false, true,  kResNet, 8,
     {0xbdb1263fu, 0xeafb1387u}, {0x122574e8u, 0xf39caed2u}, {0x883f8081u, 0x883f8081u}},
  };
  // clang-format on
  const InMemoryDataset train = MakeTrainSet(kMatrixExamples, 76);
  const SimdTier entry_tier = ActiveSimdTier();
  const int entry_threads = GetGlobalThreadCount();
  for (const MatrixRow& row : rows) {
    for (const SimdTier tier : AvailableSimdTiers()) {
      SetSimdTier(tier);
      const auto t = static_cast<size_t>(tier);
      for (const int threads : {1, 4}) {
        SetGlobalThreadCount(threads);
        SCOPED_TRACE(RowName(row));
        SCOPED_TRACE(SimdTierName(tier));
        SCOPED_TRACE("threads " + std::to_string(threads));
        const MatrixOutput out = RunMatrixRow(train, row);
        EXPECT_EQ(out.weights_crc, row.weights_crc[t]);
        EXPECT_EQ(out.jsonl_crc, row.jsonl_crc[t]);
        EXPECT_EQ(out.epsilon_crc, row.epsilon_crc[t]);
      }
    }
  }
  SetSimdTier(entry_tier);
  SetGlobalThreadCount(entry_threads);
}

// -- Resume rejection ---------------------------------------------------
//
// A checkpoint whose CRC is valid but whose component state does not fit
// this run must be refused with FailedPrecondition before the model is
// touched.

std::string WeightBytes(Sequential& model) {
  const Tensor flat = FlattenValues(model.Parameters());
  std::string bytes(static_cast<size_t>(flat.numel()) * sizeof(float), '\0');
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  return bytes;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(DpTrainerTest, ResumeRejectsComponentStateThatDoesNotFit) {
  const InMemoryDataset train = MakeTrainSet(40, 81);
  TrainerOptions options;
  options.method = PerturbationMethod::kGeoDp;
  options.batch_size = 8;
  options.iterations = 6;
  options.learning_rate = 0.5;
  options.noise_multiplier = 1.0;
  options.seed = 82;
  options.checkpoint_every = 3;
  options.checkpoint_dir = FreshDir("resume_reject_source");
  {
    auto model = MakeModel(83);
    DpTrainer trainer(model.get(), &train, nullptr, options);
    ASSERT_TRUE(trainer.Run().ok());
  }
  StatusOr<FoundCheckpoint> found =
      FindLatestGoodCheckpoint(options.checkpoint_dir);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  const TrainingCheckpoint saved = found.value().checkpoint;

  struct Corruption {
    const char* what;
    std::function<void(TrainingCheckpoint&)> apply;
  };
  const std::vector<Corruption> corruptions = {
      {"uniform-sampler order length",
       [](TrainingCheckpoint& c) { c.uniform_sampler.order.pop_back(); }},
      {"uniform-sampler cursor out of range",
       [](TrainingCheckpoint& c) { c.uniform_sampler.cursor = 1 << 20; }},
      {"importance-sampler weights length",
       [](TrainingCheckpoint& c) { c.importance_sampler.weights.clear(); }},
      {"adam m size", [](TrainingCheckpoint& c) { c.adam.m = Tensor({3}); }},
      {"beta envelope min/max lengths",
       [](TrainingCheckpoint& c) { c.beta_controller.min_angle = {0.5}; }},
      {"negative SUR counter",
       [](TrainingCheckpoint& c) { c.sur_rejected = -1; }},
  };
  options.checkpoint_every = 0;
  options.checkpoint_dir.clear();
  for (const Corruption& corruption : corruptions) {
    SCOPED_TRACE(corruption.what);
    TrainingCheckpoint doctored = saved;
    corruption.apply(doctored);
    options.resume_from = FreshDir("resume_reject_doctored");
    const std::string path =
        options.resume_from + "/" + CheckpointFileName(doctored.next_attempt);
    ASSERT_TRUE(SaveTrainingCheckpoint(doctored, path).ok());
    auto model = MakeModel(84);
    const std::string before = WeightBytes(*model);
    DpTrainer trainer(model.get(), &train, nullptr, options);
    StatusOr<TrainingResult> run = trainer.Run();
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition)
        << run.status().ToString();
    EXPECT_EQ(WeightBytes(*model), before);
  }
}

}  // namespace
}  // namespace geodp
