// Tests for the phase profiler: hierarchical paths and self-time, the
// power-of-two percentile pipeline, leaf records (thread-pool parts),
// the folded-stack and /profilez golden structure, on/off gating, and
// the observability-neutrality contract — training telemetry bytes are
// identical with the profiler and flight recorder on or off, at 1 and 8
// threads.

#include <gtest/gtest.h>

#include <string>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/phase_profiler.h"
#include "obs/step_observer.h"
#include "obs/trace.h"
#include "optim/trainer.h"

namespace geodp {
namespace {

// Every test drives the process-global profiler; reset around each to
// keep them order-independent.
class PhaseProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { EnableProfiling(std::string()); }
  void TearDown() override {
    DisableProfiling();
    ResetProfile();
  }
};

const PhaseStats* FindPhase(const ProfileSnapshot& snapshot,
                            const std::string& path) {
  for (const PhaseStats& phase : snapshot.phases) {
    if (phase.path == path) return &phase;
  }
  return nullptr;
}

TEST_F(PhaseProfilerTest, NestedSpansSplitTotalIntoSelfAndChildren) {
  internal::ProfilerEnterSpan("step");
  internal::ProfilerEnterSpan("step.sur_eval");
  internal::ProfilerExitSpan("step.sur_eval", 300);
  internal::ProfilerExitSpan("step", 1000);

  const ProfileSnapshot snapshot = SnapshotProfile();
  EXPECT_EQ(snapshot.threads, 1);
  ASSERT_EQ(snapshot.phases.size(), 2u);

  const PhaseStats* step = FindPhase(snapshot, "step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->name, "step");
  EXPECT_EQ(step->count, 1);
  EXPECT_EQ(step->total_micros, 1000);
  EXPECT_EQ(step->self_micros, 700);
  EXPECT_GT(step->p50_micros, 0.0);

  const PhaseStats* child = FindPhase(snapshot, "step;step.sur_eval");
  ASSERT_NE(child, nullptr);
  EXPECT_EQ(child->name, "step.sur_eval");
  EXPECT_EQ(child->total_micros, 300);
  EXPECT_EQ(child->self_micros, 300);
  // One 300 us observation lands in the (256, 512] power-of-two bucket.
  EXPECT_GT(child->p50_micros, 256.0);
  EXPECT_LE(child->p50_micros, 512.0);
}

TEST_F(PhaseProfilerTest, LeafRecordsAttachUnderTheCurrentSpan) {
  internal::ProfilerEnterSpan("step");
  internal::ProfilerRecordLeaf("pool.part", 40);
  internal::ProfilerRecordLeaf("pool.part", 60);
  internal::ProfilerExitSpan("step", 500);

  const ProfileSnapshot snapshot = SnapshotProfile();
  const PhaseStats* leaf = FindPhase(snapshot, "step;pool.part");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->count, 2);
  EXPECT_EQ(leaf->total_micros, 100);
  const PhaseStats* step = FindPhase(snapshot, "step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->self_micros, 400);
}

TEST_F(PhaseProfilerTest, FoldedStacksGoldenBytes) {
  internal::ProfilerEnterSpan("step");
  internal::ProfilerEnterSpan("step.optimizer_apply");
  internal::ProfilerExitSpan("step.optimizer_apply", 250);
  internal::ProfilerExitSpan("step", 1000);

  EXPECT_EQ(FoldedStacks(SnapshotProfile()),
            "step 750\n"
            "step;step.optimizer_apply 250\n");
  // Zero-self phases are omitted: a wrapper that spends everything in its
  // child contributes no folded line of its own.
  EXPECT_EQ(FoldedStacks(ProfileSnapshot{}), "");
}

TEST_F(PhaseProfilerTest, ProfilezJsonGoldenStructure) {
  internal::ProfilerEnterSpan("step");
  internal::ProfilerEnterSpan("step.sur_eval");
  internal::ProfilerExitSpan("step.sur_eval", 300);
  internal::ProfilerExitSpan("step", 1000);

  const std::string json = ProfilezJson(SnapshotProfile(), true);
  EXPECT_EQ(json.find("{\"enabled\":true,\"threads\":1,\"phases\":["), 0u);
  EXPECT_NE(json.find("{\"path\":\"step\",\"name\":\"step\",\"count\":1,"
                      "\"total_micros\":1000,\"self_micros\":700,"
                      "\"share_of_step\":1,"),
            std::string::npos);
  // share_of_step divides by the root "step" phase's total.
  EXPECT_NE(json.find("{\"path\":\"step;step.sur_eval\","
                      "\"name\":\"step.sur_eval\",\"count\":1,"
                      "\"total_micros\":300,\"self_micros\":300,"
                      "\"share_of_step\":0.3,"),
            std::string::npos);

  const std::string html = ProfilezHtml(SnapshotProfile(), true);
  EXPECT_NE(html.find("<title>geodp /profilez</title>"), std::string::npos);
  EXPECT_NE(html.find("step;step.sur_eval"), std::string::npos);

  // Empty snapshot, profiler off: the JSON still has the full shape.
  ResetProfile();
  EXPECT_EQ(ProfilezJson(SnapshotProfile(), false),
            "{\"enabled\":false,\"threads\":0,\"phases\":[]}");
}

TEST_F(PhaseProfilerTest, DisabledProfilerRecordsNothing) {
  DisableProfiling();
  internal::ProfilerEnterSpan("step");
  internal::ProfilerExitSpan("step", 1000);
  internal::ProfilerRecordLeaf("pool.part", 10);
  EXPECT_TRUE(SnapshotProfile().phases.empty());
  EXPECT_FALSE(ProfilingEnabled());
}

TEST_F(PhaseProfilerTest, TraceSpansFeedTheProfilerWhenEnabled) {
  { TraceSpan span("step"); }
  const ProfileSnapshot snapshot = SnapshotProfile();
  const PhaseStats* step = FindPhase(snapshot, "step");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->count, 1);
}

TEST_F(PhaseProfilerTest, ResetZeroesCountsWithoutDisabling) {
  internal::ProfilerEnterSpan("step");
  internal::ProfilerExitSpan("step", 100);
  ASSERT_FALSE(SnapshotProfile().phases.empty());
  ResetProfile();
  EXPECT_TRUE(SnapshotProfile().phases.empty());
  EXPECT_TRUE(ProfilingEnabled());
}

// --- Observability neutrality ------------------------------------------

InMemoryDataset SmallDataset(uint64_t seed) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 96;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = seed;
  return MakeSyntheticImages(data_options);
}

std::string RunTelemetry(const InMemoryDataset& train, int threads,
                         bool obs_on) {
  SetGlobalThreadCount(threads);
  if (obs_on) {
    EnableProfiling(std::string());
    FlightRecorder::Global().set_enabled(true);
  } else {
    DisableProfiling();
    FlightRecorder::Global().set_enabled(false);
  }
  Rng rng(42);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions options;
  options.method = PerturbationMethod::kGeoDp;
  options.beta = 0.05;
  options.batch_size = 16;
  options.iterations = 8;
  options.learning_rate = 0.5;
  options.noise_multiplier = 1.0;
  options.seed = 43;
  CollectingStepObserver observer;
  options.step_observer = &observer;
  DpTrainer trainer(model.get(), &train, nullptr, options);
  trainer.Run().value();
  SetGlobalThreadCount(0);
  DisableProfiling();
  ResetProfile();
  FlightRecorder::Global().set_enabled(true);
  std::string serialized;
  for (const StepRecord& record : observer.records()) {
    serialized += StepRecordToJson(record) + "\n";
  }
  return serialized;
}

// The headline contract: the profiler and flight recorder never feed
// back into training. Telemetry bytes are identical with the full
// observability layer on or off, serial and parallel. CI re-proves this
// end-to-end over geodp_cli metrics files with cmp.
TEST(ObservabilityNeutralityTest, TelemetryBytesIdenticalOnVsOff) {
  const InMemoryDataset train = SmallDataset(41);
  const std::string off_serial = RunTelemetry(train, 1, false);
  const std::string on_serial = RunTelemetry(train, 1, true);
  const std::string off_parallel = RunTelemetry(train, 8, false);
  const std::string on_parallel = RunTelemetry(train, 8, true);
  EXPECT_FALSE(off_serial.empty());
  EXPECT_EQ(off_serial, on_serial);
  EXPECT_EQ(off_serial, off_parallel);
  EXPECT_EQ(off_serial, on_parallel);
}

}  // namespace
}  // namespace geodp
