// Tests for the resilient I/O substrate and the trainer's graceful
// degradation on top of it: errno classification, deterministic
// retry/backoff, atomic write cleanup, the generalized multi-site fault
// injector (thread safety, probabilistic determinism), telemetry
// degraded mode (training bit-identical with every sink failing, at 1
// and 8 threads), checkpoint miss-debt bounds, prune-error counting,
// and the stall watchdog's cancel-then-resume path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/fault_injection.h"
#include "base/io/file_io.h"
#include "base/io/retry.h"
#include "base/rng.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "nn/parameter.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/step_observer.h"
#include "optim/trainer.h"
#include "support/oracles.h"

namespace geodp {
namespace {

using Action = FaultInjector::Action;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Every test disarms on exit so a failing assertion cannot leak an armed
// fail point into an unrelated test.
class ResilienceTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(ResilienceTest, TransientErrnoClassification) {
  EXPECT_TRUE(IsTransientErrno(EINTR));
  EXPECT_TRUE(IsTransientErrno(EAGAIN));
  EXPECT_TRUE(IsTransientErrno(EIO));
  EXPECT_FALSE(IsTransientErrno(ENOSPC));
  EXPECT_FALSE(IsTransientErrno(ENOENT));
  EXPECT_FALSE(IsTransientErrno(EACCES));
  EXPECT_FALSE(IsTransientErrno(0));
}

TEST_F(ResilienceTest, StatusFromErrnoMapsToTypedCodes) {
  EXPECT_EQ(StatusFromErrno(EIO, "write x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(StatusFromErrno(ENOSPC, "c").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno(EDQUOT, "c").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusFromErrno(EROFS, "c").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromErrno(EACCES, "c").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(StatusFromErrno(ENOENT, "c").code(), StatusCode::kNotFound);
  EXPECT_EQ(StatusFromErrno(EINVAL, "c").code(), StatusCode::kInternal);
  // Message carries the caller's context plus strerror text.
  const Status status = StatusFromErrno(EIO, "write telemetry.jsonl");
  EXPECT_NE(status.message().find("write telemetry.jsonl"),
            std::string::npos);
}

TEST_F(ResilienceTest, RetryStateRetriesTransientThenGivesUp) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 1;  // keep the test fast
  const int64_t retries_before = IoStats::Global().retries.load();
  const int64_t giveups_before = IoStats::Global().giveups.load();

  RetryState state(policy);
  EXPECT_TRUE(state.ShouldRetry(EIO));
  EXPECT_TRUE(state.ShouldRetry(EINTR));
  EXPECT_FALSE(state.ShouldRetry(EIO));  // attempt budget exhausted
  EXPECT_EQ(IoStats::Global().retries.load(), retries_before + 2);
  EXPECT_EQ(IoStats::Global().giveups.load(), giveups_before + 1);

  // Permanent errnos never retry, however many attempts remain.
  RetryState permanent(policy);
  EXPECT_FALSE(permanent.ShouldRetry(ENOSPC));
  EXPECT_EQ(IoStats::Global().retries.load(), retries_before + 2);
  EXPECT_EQ(IoStats::Global().giveups.load(), giveups_before + 2);
}

TEST_F(ResilienceTest, RetryStateHonorsDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 1000;
  policy.initial_backoff_us = 1;
  policy.deadline_us = 50;
  RetryState state(policy);
  // Burn monotonic time past the deadline, then a transient errno must
  // still give up.
  const int64_t start = Timer::ProcessMicros();
  while (Timer::ProcessMicros() - start < 200) {
  }
  EXPECT_FALSE(state.ShouldRetry(EIO));
}

TEST_F(ResilienceTest, AtomicWriteThenReadRoundTrips) {
  const std::string dir = FreshDir("resilience_rw");
  const std::string path = dir + "/nested/not/yet/made/data.bin";
  const std::string bytes("geodp\0payload\n", 14);  // embedded NUL
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());   // creates parents
  const StatusOr<std::string> read = ReadFileWithRetry(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes);

  const StatusOr<std::string> missing = ReadFileWithRetry(dir + "/absent");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ResilienceTest, TransientReadFaultIsRetriedToSuccess) {
  const std::string dir = FreshDir("resilience_read_retry");
  ASSERT_TRUE(AtomicWriteFile(dir + "/f", "payload").ok());
  ASSERT_TRUE(FaultInjector::ArmFromSpec("test.read@1:eio").ok());
  const int64_t retries_before = IoStats::Global().retries.load();
  const StatusOr<std::string> read =
      ReadFileWithRetry(dir + "/f", RetryPolicy{}, "test.read");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), "payload");
  EXPECT_GT(IoStats::Global().retries.load(), retries_before);
}

TEST_F(ResilienceTest, PermanentWriteFaultSurfacesTypedAndLeavesNoTemp) {
  const std::string dir = FreshDir("resilience_enospc");
  ASSERT_TRUE(FaultInjector::ArmFromSpec("test.write@1:enospc").ok());
  const Status status =
      AtomicWriteFile(dir + "/f", "x", RetryPolicy{}, "test.write");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  // A failed attempt is all-or-nothing: no temp file debris.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ADD_FAILURE() << "unexpected file left behind: " << entry.path();
  }
  // The one-shot fault is spent; the identical call now succeeds.
  EXPECT_TRUE(
      AtomicWriteFile(dir + "/f", "x", RetryPolicy{}, "test.write").ok());
}

TEST_F(ResilienceTest, ExhaustedTransientRetriesReturnUnavailable) {
  const std::string dir = FreshDir("resilience_exhaust");
  ASSERT_TRUE(FaultInjector::ArmFromSpec("test.write@p=1:eio").ok());
  RetryPolicy policy;
  policy.initial_backoff_us = 1;
  const int64_t giveups_before = IoStats::Global().giveups.load();
  const Status status =
      AtomicWriteFile(dir + "/f", "x", policy, "test.write");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GT(IoStats::Global().giveups.load(), giveups_before);
  EXPECT_FALSE(std::filesystem::exists(dir + "/f"));
  FaultInjector::Global().Disarm();
  EXPECT_TRUE(AtomicWriteFile(dir + "/f", "x", policy, "test.write").ok());
}

TEST_F(ResilienceTest, TornRenameWritesTruncatedBytes) {
  // torn_rename simulates a torn file landing durably in place. The
  // substrate reports success — catching the corruption is the CRC
  // layer's job (ckpt_test pins that the checkpoint format rejects it).
  const std::string dir = FreshDir("resilience_torn");
  ASSERT_TRUE(FaultInjector::ArmFromSpec("test.write@1:torn_rename").ok());
  const std::string bytes = "0123456789abcdef";
  ASSERT_TRUE(
      AtomicWriteFile(dir + "/f", bytes, RetryPolicy{}, "test.write").ok());
  const StatusOr<std::string> read = ReadFileWithRetry(dir + "/f");
  ASSERT_TRUE(read.ok());
  EXPECT_LT(read.value().size(), bytes.size());
  EXPECT_EQ(read.value(), bytes.substr(0, read.value().size()));
}

TEST_F(ResilienceTest, RetryingWriterDropsAppendsAfterStickyFailure) {
  ASSERT_TRUE(FaultInjector::ArmFromSpec("test.jsonl@p=1:eio").ok());
  RetryPolicy policy;
  policy.initial_backoff_us = 1;
  RetryingWriter writer(TempPath("resilience_writer.jsonl"), policy,
                        "test.jsonl");
  EXPECT_FALSE(writer.Open().ok());
  EXPECT_FALSE(writer.open());
  EXPECT_FALSE(writer.Append("a\n").ok());
  EXPECT_FALSE(writer.Append("b\n").ok());
  EXPECT_EQ(writer.dropped_appends(), 2);
  EXPECT_FALSE(writer.Close().ok());
}

TEST_F(ResilienceTest, MultiSiteSpecArmsIndependentSites) {
  ASSERT_TRUE(FaultInjector::ArmFromSpec("a.site@1:eio,b.site@2:eintr").ok());
  FaultInjector& faults = FaultInjector::Global();
  EXPECT_EQ(faults.Fire("a.site"), Action::kEio);
  EXPECT_EQ(faults.Fire("a.site"), Action::kNone);  // one-shot: spent
  EXPECT_EQ(faults.Fire("b.site"), Action::kNone);  // hit 1 of 2
  EXPECT_EQ(faults.Fire("b.site"), Action::kEintr);
  EXPECT_EQ(faults.hits("a.site"), 2);
  EXPECT_EQ(faults.hits("b.site"), 2);
  EXPECT_EQ(faults.hits("unarmed.site"), 0);
}

TEST_F(ResilienceTest, SimulatedErrnoMapping) {
  EXPECT_EQ(FaultInjector::SimulatedErrno(Action::kEio), EIO);
  EXPECT_EQ(FaultInjector::SimulatedErrno(Action::kEintr), EINTR);
  EXPECT_EQ(FaultInjector::SimulatedErrno(Action::kEnospc), ENOSPC);
  EXPECT_EQ(FaultInjector::SimulatedErrno(Action::kCrash), 0);
  EXPECT_EQ(FaultInjector::SimulatedErrno(Action::kShortWrite), 0);
  EXPECT_EQ(FaultInjector::SimulatedErrno(Action::kNone), 0);
}

TEST_F(ResilienceTest, MalformedSpecsRejectAndDisarm) {
  const char* bad_specs[] = {
      "nosite",          "a@0:eio",       "a@x:eio",     "a@1:explode",
      "@1:eio",          "a@p=0:eio",     "a@p=1.5:eio", "a@p=x:eio",
      "a@1:eio,",        ",a@1:eio",      "a@1",         "a@1:stall:0",
      "a@1:stall:x",     "a@1:stall:-5",
  };
  for (const char* spec : bad_specs) {
    EXPECT_FALSE(FaultInjector::ArmFromSpec(spec).ok()) << spec;
    EXPECT_FALSE(FaultInjector::Global().armed()) << spec;
  }
  EXPECT_TRUE(FaultInjector::ArmFromSpec("a@1:stall:25").ok());
  EXPECT_TRUE(FaultInjector::ArmFromSpec("").ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
}

TEST_F(ResilienceTest, ProbabilisticFiringIsSeedDeterministic) {
  auto firing_pattern = [](uint64_t seed) {
    EXPECT_TRUE(FaultInjector::ArmFromSpec("p.site@p=0.5:eio").ok());
    FaultInjector::Global().SeedRng(seed);
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(FaultInjector::Global().Fire("p.site") ==
                        Action::kEio);
    }
    return pattern;
  };
  const std::vector<bool> first = firing_pattern(42);
  const std::vector<bool> second = firing_pattern(42);
  EXPECT_EQ(first, second);
  const int64_t fired = std::count(first.begin(), first.end(), true);
  EXPECT_GT(fired, 0);    // p=0.5 over 200 draws: both bounds are
  EXPECT_LT(fired, 200);  // astronomically safe
  EXPECT_NE(firing_pattern(7), first);
}

TEST_F(ResilienceTest, FireIsThreadSafeUnderContention) {
  ASSERT_TRUE(FaultInjector::ArmFromSpec("t.site@p=0.5:eio").ok());
  constexpr int kThreads = 8;
  constexpr int kFiresPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kFiresPerThread; ++i) {
        FaultInjector::Global().Fire("t.site");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(FaultInjector::Global().hits("t.site"),
            kThreads * kFiresPerThread);
}

TEST_F(ResilienceTest, StallActionBlocksThenReports) {
  ASSERT_TRUE(FaultInjector::ArmFromSpec("s.site@1:stall:10").ok());
  const int64_t start = Timer::ProcessMicros();
  EXPECT_EQ(FaultInjector::Global().Fire("s.site"), Action::kStall);
  EXPECT_GE(Timer::ProcessMicros() - start, 10 * 1000);
  EXPECT_EQ(FaultInjector::Global().Fire("s.site"), Action::kNone);
}

// ---------------------------------------------------------------------------
// Trainer-level graceful degradation.

InMemoryDataset MakeTrainSet(uint64_t seed) {
  SyntheticImageOptions options;
  options.num_examples = 80;
  options.height = 8;
  options.width = 8;
  options.seed = seed;
  return MakeSyntheticImages(options);
}

std::unique_ptr<Sequential> MakeModel(uint64_t seed) {
  Rng rng(seed);
  return MakeLogisticRegression(64, 10, rng);
}

std::string WeightBytes(Sequential& model) {
  const Tensor flat = FlattenValues(model.Parameters());
  std::string bytes(static_cast<size_t>(flat.numel()) * sizeof(float), '\0');
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  return bytes;
}

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.batch_size = 16;
  options.iterations = 8;
  options.learning_rate = 0.5;
  options.noise_multiplier = 1.0;
  options.seed = 31;
  return options;
}

struct ObservedRun {
  std::string weights;
  bool healthy = false;
  int64_t dropped = 0;
  bool snapshot_degraded = false;
  Status status;
  bool ok = false;
};

// One training run writing telemetry through JsonlStepWriter, with the
// obs.jsonl fail point optionally armed to fail every write attempt.
ObservedRun RunWithJsonlSink(const std::string& jsonl_path,
                             bool fail_telemetry) {
  if (fail_telemetry) {
    EXPECT_TRUE(FaultInjector::ArmFromSpec("obs.jsonl@p=1:eio").ok());
  } else {
    FaultInjector::Global().Disarm();
  }
  const InMemoryDataset train = MakeTrainSet(50);
  auto model = MakeModel(7);
  JsonlStepWriter writer(jsonl_path);
  TrainingStatusPublisher publisher;
  TrainerOptions options = BaseOptions();
  options.step_observer = &writer;
  options.status_publisher = &publisher;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  ObservedRun out;
  const StatusOr<TrainingResult> run = trainer.Run();
  out.ok = run.ok();
  out.status = run.ok() ? Status::Ok() : run.status();
  FaultInjector::Global().Disarm();
  if (!run.ok()) return out;
  out.weights = WeightBytes(*model);
  out.healthy = writer.healthy();
  out.dropped = writer.dropped_records();
  out.snapshot_degraded = publisher.Latest() != nullptr &&
                          publisher.Latest()->degraded;
  writer.Close();
  return out;
}

TEST_F(ResilienceTest, TelemetryLossDegradesButNeverPerturbsTraining) {
  MetricsRegistry::Global().Reset();
  const std::string dir = FreshDir("resilience_degraded");

  SetGlobalThreadCount(1);
  const ObservedRun reference =
      RunWithJsonlSink(dir + "/ok.jsonl", /*fail_telemetry=*/false);
  ASSERT_TRUE(reference.ok) << reference.status.ToString();
  EXPECT_TRUE(reference.healthy);
  EXPECT_EQ(reference.dropped, 0);
  EXPECT_FALSE(reference.snapshot_degraded);

  const ObservedRun degraded_serial =
      RunWithJsonlSink(dir + "/deg1.jsonl", /*fail_telemetry=*/true);
  SetGlobalThreadCount(8);
  const ObservedRun degraded_parallel =
      RunWithJsonlSink(dir + "/deg8.jsonl", /*fail_telemetry=*/true);
  SetGlobalThreadCount(0);

  ASSERT_TRUE(degraded_serial.ok) << degraded_serial.status.ToString();
  ASSERT_TRUE(degraded_parallel.ok) << degraded_parallel.status.ToString();
  // Training is bit-identical with the telemetry sink failing every
  // write, at 1 and at 8 threads.
  EXPECT_EQ(degraded_serial.weights, reference.weights);
  EXPECT_EQ(degraded_parallel.weights, reference.weights);
  // The loss is visible, not silent: unhealthy sink, counted drops, the
  // sticky degraded flag in the published snapshot, and the obs.degraded
  // gauge in the global registry.
  EXPECT_FALSE(degraded_serial.healthy);
  EXPECT_EQ(degraded_serial.dropped, BaseOptions().iterations);
  EXPECT_TRUE(degraded_serial.snapshot_degraded);
  EXPECT_EQ(GaugeValue(MetricsRegistry::Global(), "obs.degraded"), 1.0);
  EXPECT_GT(CounterValue(MetricsRegistry::Global(), "obs.jsonl_write_errors"), 0);
}

TEST_F(ResilienceTest, CheckpointMissDebtBoundAbortsWithContext) {
  MetricsRegistry::Global().Reset();
  const InMemoryDataset train = MakeTrainSet(50);
  auto model = MakeModel(7);
  CollectingStepObserver observer;  // enables io-stat mirroring
  TrainerOptions options = BaseOptions();
  options.step_observer = &observer;
  options.checkpoint_dir = FreshDir("resilience_missdebt");
  options.checkpoint_every = 1;
  options.max_missed_checkpoints = 1;
  ASSERT_TRUE(FaultInjector::ArmFromSpec("ckpt.write_io@p=1:eio").ok());
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(run.status().message().find("consecutive checkpoint(s) missed"),
            std::string::npos);
  EXPECT_GE(CounterValue(MetricsRegistry::Global(), "ckpt.missed"), 2);
  EXPECT_GT(CounterValue(MetricsRegistry::Global(), "io.giveups"), 0);
}

TEST_F(ResilienceTest, CheckpointMissesWithinBoundDoNotPerturbTraining) {
  const InMemoryDataset train = MakeTrainSet(50);
  auto reference_model = MakeModel(7);
  TrainerOptions options = BaseOptions();
  {
    DpTrainer trainer(reference_model.get(), &train, nullptr, options);
    ASSERT_TRUE(trainer.Run().ok());
  }

  auto model = MakeModel(7);
  options.checkpoint_dir = FreshDir("resilience_missok");
  options.checkpoint_every = 1;
  options.max_missed_checkpoints = options.iterations;  // absorb them all
  ASSERT_TRUE(FaultInjector::ArmFromSpec("ckpt.write_io@p=1:eio").ok());
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const StatusOr<TrainingResult> run = trainer.Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(WeightBytes(*model), WeightBytes(*reference_model));
}

TEST_F(ResilienceTest, PruneErrorsAreCountedNeverFatal) {
  MetricsRegistry::Global().Reset();
  const InMemoryDataset train = MakeTrainSet(50);
  auto model = MakeModel(7);
  TrainerOptions options = BaseOptions();
  options.checkpoint_dir = FreshDir("resilience_prune");
  options.checkpoint_every = 1;
  options.checkpoint_keep = 1;
  ASSERT_TRUE(FaultInjector::ArmFromSpec("ckpt.prune@p=1:eio").ok());
  DpTrainer trainer(model.get(), &train, nullptr, options);
  ASSERT_TRUE(trainer.Run().ok());
  EXPECT_GT(CounterValue(MetricsRegistry::Global(), "ckpt.prune_errors"), 0);
  // Every prune failed, so the files stale pruning would have deleted are
  // still there (keep=1 but `iterations` checkpoints written).
  int64_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           options.checkpoint_dir)) {
    files += entry.is_regular_file() ? 1 : 0;
  }
  EXPECT_GT(files, 1);
}

TEST_F(ResilienceTest, StallWatchdogCancelsFlushesAndResumes) {
  const InMemoryDataset train = MakeTrainSet(50);
  TrainerOptions base = BaseOptions();
  base.iterations = 12;

  auto reference_model = MakeModel(7);
  {
    DpTrainer trainer(reference_model.get(), &train, nullptr, base);
    ASSERT_TRUE(trainer.Run().ok());
  }

  // Stalled run: attempt 3's trainer.step fire blocks for 1s while the
  // watchdog only tolerates 200ms without a heartbeat. The loop must
  // cancel cooperatively at the next attempt boundary, flush a final
  // checkpoint, and report kCancelled.
  const std::string dir = FreshDir("resilience_stall");
  auto stalled_model = MakeModel(7);
  TrainingStatusPublisher publisher;
  TrainerOptions stalled = base;
  stalled.checkpoint_dir = dir;
  stalled.checkpoint_every = 1;
  stalled.stall_timeout_ms = 200;
  stalled.status_publisher = &publisher;
  ASSERT_TRUE(FaultInjector::ArmFromSpec("trainer.step@3:stall:1000").ok());
  DpTrainer trainer(stalled_model.get(), &train, nullptr, stalled);
  const StatusOr<TrainingResult> run = trainer.Run();
  FaultInjector::Global().Disarm();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
  EXPECT_NE(run.status().message().find("stall watchdog"),
            std::string::npos);
  ASSERT_NE(publisher.Latest(), nullptr);
  EXPECT_EQ(publisher.Latest()->run_state, "cancelled");

  // The cancel path flushed a postmortem after the final checkpoint; it
  // overwrites that attempt's checkpoint postmortem, so the newest
  // postmortem-*.json in the directory carries the watchdog reason.
  std::string newest_postmortem;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("postmortem-", 0) == 0 && name > newest_postmortem) {
      newest_postmortem = name;
    }
  }
  ASSERT_FALSE(newest_postmortem.empty());
  const StatusOr<std::string> postmortem =
      ReadFileWithRetry(dir + "/" + newest_postmortem);
  ASSERT_TRUE(postmortem.ok()) << postmortem.status().ToString();
  EXPECT_NE(postmortem.value().find("\"kind\":\"postmortem\""),
            std::string::npos);
  EXPECT_NE(postmortem.value().find("\"reason\":\"watchdog_cancel\""),
            std::string::npos);
  EXPECT_NE(postmortem.value().find("\"kind\":\"watchdog_cancel\""),
            std::string::npos);  // the kWatchdogCancel flight event

  // Resume with different resilience knobs (watchdog off): the options
  // fingerprint excludes them, so the checkpoint must be accepted, and
  // the finished run must match the uninterrupted reference exactly.
  auto resumed_model = MakeModel(7);
  TrainerOptions resume = base;
  resume.checkpoint_dir = dir;
  resume.checkpoint_every = 1;
  resume.resume_from = dir;
  DpTrainer resumer(resumed_model.get(), &train, nullptr, resume);
  const StatusOr<TrainingResult> resumed = resumer.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(WeightBytes(*resumed_model), WeightBytes(*reference_model));
}

TEST_F(ResilienceTest, NegativeResilienceOptionsAreRejected) {
  const InMemoryDataset train = MakeTrainSet(50);
  auto model = MakeModel(7);
  TrainerOptions options = BaseOptions();
  options.max_missed_checkpoints = -1;
  {
    DpTrainer trainer(model.get(), &train, nullptr, options);
    EXPECT_FALSE(trainer.Run().ok());
  }
  options = BaseOptions();
  options.stall_timeout_ms = -5;
  {
    DpTrainer trainer(model.get(), &train, nullptr, options);
    EXPECT_FALSE(trainer.Run().ok());
  }
}

}  // namespace
}  // namespace geodp
