// The headline crash-safety guarantee: kill training at any step, resume
// from the checkpoint directory, and the remaining steps are BIT-IDENTICAL
// to an uninterrupted run — same telemetry bytes, same final weights, same
// accounted epsilon. Verified at several kill points, at 1 and 8 threads,
// and across the SUR / Adam / adaptive-beta / Poisson / IS code paths.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "nn/parameter.h"
#include "obs/step_observer.h"
#include "optim/trainer.h"

namespace geodp {
namespace {

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

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Raw IEEE-754 bytes of the flattened model weights — equality here is
// bit-identity, not approximate closeness.
std::string WeightBytes(Sequential& model) {
  const Tensor flat = FlattenValues(model.Parameters());
  std::string bytes(static_cast<size_t>(flat.numel()) * sizeof(float), '\0');
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  return bytes;
}

struct SegmentOutput {
  std::vector<std::string> records;  // serialized telemetry, one per attempt
  std::string weights;
  TrainingResult result;
  Status status;
  bool ok = false;
};

SegmentOutput RunSegment(const InMemoryDataset& train,
                         TrainerOptions options, uint64_t model_seed) {
  auto model = MakeModel(model_seed);
  CollectingStepObserver observer;
  options.step_observer = &observer;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  SegmentOutput out;
  StatusOr<TrainingResult> run = trainer.Run();
  out.ok = run.ok();
  out.status = run.ok() ? Status::Ok() : run.status();
  if (!run.ok()) return out;
  out.result = std::move(run).value();
  out.weights = WeightBytes(*model);
  for (const StepRecord& record : observer.records()) {
    out.records.push_back(StepRecordToJson(record));
  }
  return out;
}

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.batch_size = 16;
  options.iterations = 30;
  options.learning_rate = 0.5;
  options.noise_multiplier = 1.0;
  options.seed = 101;
  options.record_loss_every = 1;
  return options;
}

// Runs the full kill-at-k / resume / compare cycle for one configuration.
void CheckBitIdenticalResume(const TrainerOptions& base,
                             const std::string& dir_name,
                             std::initializer_list<int64_t> kill_points) {
  const InMemoryDataset train = MakeTrainSet(80, 50);
  const uint64_t model_seed = 7;

  const SegmentOutput reference = RunSegment(train, base, model_seed);
  ASSERT_TRUE(reference.ok) << reference.status.ToString();

  for (const int64_t k : kill_points) {
    SCOPED_TRACE("kill at iteration " + std::to_string(k));
    const std::string dir =
        FreshDir(dir_name + "_k" + std::to_string(k));

    // Part 1 simulates the killed run: it checkpoints after every attempt
    // and stops after k accepted updates. The first k steps of a run do
    // not depend on when it will stop, so stopping early stands in for a
    // mid-run kill (the CLI-level CI job performs a real _Exit kill).
    TrainerOptions part1 = base;
    part1.iterations = k;
    part1.checkpoint_every = 1;
    part1.checkpoint_dir = dir;
    const SegmentOutput killed = RunSegment(train, part1, model_seed);
    ASSERT_TRUE(killed.ok) << killed.status.ToString();

    // Part 2 resumes on a FRESH model (all state must come from the
    // checkpoint) with the original iteration budget.
    TrainerOptions part2 = base;
    part2.checkpoint_every = 1;
    part2.checkpoint_dir = dir;
    part2.resume_from = dir;
    const SegmentOutput resumed =
        RunSegment(train, part2, /*model_seed=*/999);
    ASSERT_TRUE(resumed.ok) << resumed.status.ToString();

    // Telemetry: the resumed records must equal the reference tail,
    // byte for byte.
    const size_t done = killed.records.size();
    ASSERT_EQ(resumed.records.size(), reference.records.size() - done);
    for (size_t i = 0; i < resumed.records.size(); ++i) {
      EXPECT_EQ(resumed.records[i], reference.records[done + i])
          << "record " << i << " after resume differs";
    }
    // Weights: bit-identical, not just close.
    EXPECT_EQ(resumed.weights, reference.weights);
    // Privacy: exactly the same spend, no double counting across segments.
    EXPECT_EQ(resumed.result.epsilon, reference.result.epsilon);
    EXPECT_EQ(resumed.result.ledger.TotalReleases(),
              reference.result.ledger.TotalReleases());
    // Loss record and counters continue seamlessly.
    EXPECT_EQ(resumed.result.loss_history, reference.result.loss_history);
    EXPECT_EQ(resumed.result.loss_iterations,
              reference.result.loss_iterations);
    EXPECT_EQ(resumed.result.empty_lots, reference.result.empty_lots);
    EXPECT_EQ(resumed.result.sur_accepted, reference.result.sur_accepted);
    EXPECT_EQ(resumed.result.sur_rejected, reference.result.sur_rejected);
  }
}

TEST(CrashResumeTest, DpFixedBatchBitIdentical) {
  CheckBitIdenticalResume(BaseOptions(), "resume_dp", {1, 11, 29});
}

TEST(CrashResumeTest, DpFixedBatchBitIdenticalAt8Threads) {
  SetGlobalThreadCount(8);
  CheckBitIdenticalResume(BaseOptions(), "resume_dp8", {1, 11, 29});
  SetGlobalThreadCount(1);
}

TEST(CrashResumeTest, GeoDpAdaptiveBetaPoissonBitIdentical) {
  TrainerOptions options = BaseOptions();
  options.method = PerturbationMethod::kGeoDp;
  options.beta = 0.05;
  options.adaptive_beta = true;
  options.poisson_sampling = true;
  CheckBitIdenticalResume(options, "resume_geodp", {5, 17});
}

TEST(CrashResumeTest, SelectiveUpdateBitIdentical) {
  TrainerOptions options = BaseOptions();
  options.selective_update = true;
  options.noise_multiplier = 2.0;
  options.learning_rate = 2.0;
  options.iterations = 20;
  CheckBitIdenticalResume(options, "resume_sur", {3, 13});
}

TEST(CrashResumeTest, AdamImportanceSamplingBitIdentical) {
  TrainerOptions options = BaseOptions();
  options.use_adam = true;
  options.importance_sampling = true;
  options.learning_rate = 0.05;
  CheckBitIdenticalResume(options, "resume_adam_is", {2, 19});
}

TEST(CrashResumeTest, ResumeExtendsTraining) {
  const InMemoryDataset train = MakeTrainSet(80, 50);
  const std::string dir = FreshDir("resume_extend");

  TrainerOptions part1 = BaseOptions();
  part1.iterations = 10;
  part1.checkpoint_every = 1;
  part1.checkpoint_dir = dir;
  const SegmentOutput first = RunSegment(train, part1, 7);
  ASSERT_TRUE(first.ok);

  // `iterations` is excluded from the fingerprint: resuming with a larger
  // budget continues training past the original horizon.
  TrainerOptions part2 = BaseOptions();
  part2.iterations = 25;
  part2.resume_from = dir;
  const SegmentOutput extended = RunSegment(train, part2, 999);
  ASSERT_TRUE(extended.ok) << extended.status.ToString();
  EXPECT_EQ(extended.records.size(), 15u);
  EXPECT_GT(extended.result.epsilon, first.result.epsilon);
}

TEST(CrashResumeTest, GhostClipModeBitIdentical) {
  TrainerOptions options = BaseOptions();
  options.clip_mode = "ghost";
  CheckBitIdenticalResume(options, "resume_ghost", {1, 11, 29});
}

TEST(CrashResumeTest, GhostClipModePoissonBitIdentical) {
  TrainerOptions options = BaseOptions();
  options.clip_mode = "ghost";
  options.poisson_sampling = true;
  CheckBitIdenticalResume(options, "resume_ghost_poisson", {5, 17});
}

TEST(CrashResumeTest, ResumeRefusesCrossClipMode) {
  // The options fingerprint embeds clip_mode, so a ghost run can never
  // silently continue a materialize checkpoint (or vice versa) — the two
  // paths are equivalent only up to floating-point tolerance, not bit
  // layout.
  const InMemoryDataset train = MakeTrainSet(80, 50);
  const std::string dir = FreshDir("resume_cross_mode");

  TrainerOptions part1 = BaseOptions();
  part1.iterations = 5;
  part1.checkpoint_every = 1;
  part1.checkpoint_dir = dir;
  ASSERT_TRUE(RunSegment(train, part1, 7).ok);

  TrainerOptions part2 = BaseOptions();
  part2.clip_mode = "ghost";
  part2.resume_from = dir;
  const SegmentOutput resumed = RunSegment(train, part2, 7);
  EXPECT_FALSE(resumed.ok);
  EXPECT_EQ(resumed.status.code(), StatusCode::kFailedPrecondition);
}

TEST(CrashResumeTest, ResumeRefusesMismatchedOptions) {
  const InMemoryDataset train = MakeTrainSet(80, 50);
  const std::string dir = FreshDir("resume_mismatch");

  TrainerOptions part1 = BaseOptions();
  part1.iterations = 5;
  part1.checkpoint_every = 1;
  part1.checkpoint_dir = dir;
  ASSERT_TRUE(RunSegment(train, part1, 7).ok);

  TrainerOptions part2 = BaseOptions();
  part2.noise_multiplier = 2.0;  // different privacy parameters
  part2.resume_from = dir;
  const SegmentOutput resumed = RunSegment(train, part2, 7);
  EXPECT_FALSE(resumed.ok);
  EXPECT_EQ(resumed.status.code(), StatusCode::kFailedPrecondition);
}

TEST(CrashResumeTest, ResumeFromEmptyDirectoryFails) {
  const InMemoryDataset train = MakeTrainSet(80, 50);
  TrainerOptions options = BaseOptions();
  options.resume_from = FreshDir("resume_nothing");
  const SegmentOutput resumed = RunSegment(train, options, 7);
  EXPECT_FALSE(resumed.ok);
  EXPECT_EQ(resumed.status.code(), StatusCode::kNotFound);
}

TEST(CrashResumeTest, CheckpointKeepBoundsFileCount) {
  const InMemoryDataset train = MakeTrainSet(80, 50);
  const std::string dir = FreshDir("resume_keep");
  TrainerOptions options = BaseOptions();
  options.iterations = 12;
  options.checkpoint_every = 1;
  options.checkpoint_dir = dir;
  options.checkpoint_keep = 3;
  ASSERT_TRUE(RunSegment(train, options, 7).ok);

  // Postmortem dumps piggyback on checkpoints but live outside the
  // ckpt_* prune pattern; keep bounds checkpoints, not postmortems.
  int64_t checkpoints = 0;
  int64_t postmortems = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    checkpoints += name.rfind("ckpt_", 0) == 0 ? 1 : 0;
    postmortems += name.rfind("postmortem-", 0) == 0 ? 1 : 0;
  }
  EXPECT_EQ(checkpoints, 3);
  EXPECT_GE(postmortems, 1);
}

TEST(CrashResumeTest, NoCheckpointFilesWhenDisabled) {
  const InMemoryDataset train = MakeTrainSet(80, 50);
  const std::string dir = FreshDir("resume_disabled");
  TrainerOptions options = BaseOptions();
  options.iterations = 5;
  options.checkpoint_every = 0;  // off: the loop must write nothing
  options.checkpoint_dir = dir;
  ASSERT_TRUE(RunSegment(train, options, 7).ok);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
}

}  // namespace
}  // namespace geodp
