// Tests for the observability layer: deterministic number formatting, the
// metrics registry, trace spans, step records, and the end-to-end
// guarantee that per-step telemetry is bit-identical across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "data/synthetic_images.h"
#include "models/logistic_regression.h"
#include "obs/metrics.h"
#include "obs/step_observer.h"
#include "obs/trace.h"
#include "optim/trainer.h"
#include "support/oracles.h"

namespace geodp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(FormatDoubleTest, RoundTripsExactly) {
  const double values[] = {0.0,   1.0,        -1.0,       0.1,
                           1.0 / 3.0,         1e-300,     1e300,
                           3.141592653589793, -2.5e-8,    123456789.123456789};
  for (const double v : values) {
    const std::string text = FormatDouble(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(FormatDoubleTest, PrefersShortRepresentation) {
  EXPECT_EQ(FormatDouble(0.1), "0.1");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(-0.5), "-0.5");
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.IncrementCounter("steps");
  registry.IncrementCounter("steps", 4);
  EXPECT_EQ(CounterValue(registry, "steps"), 5);
  EXPECT_EQ(CounterValue(registry, "missing"), 0);

  registry.SetGauge("epsilon", 1.25);
  registry.SetGauge("epsilon", 2.5);
  EXPECT_EQ(GaugeValue(registry, "epsilon"), 2.5);

  registry.ObserveHistogram("clip", {0.5, 1.0}, 0.25);
  registry.ObserveHistogram("clip", {0.5, 1.0}, 0.75);
  registry.ObserveHistogram("clip", {0.5, 1.0}, 9.0);  // overflow bucket
  const HistogramSnapshot snapshot = HistogramValue(registry, "clip");
  ASSERT_EQ(snapshot.upper_bounds.size(), 2u);
  ASSERT_EQ(snapshot.counts.size(), 3u);
  EXPECT_EQ(snapshot.counts[0], 1);
  EXPECT_EQ(snapshot.counts[1], 1);
  EXPECT_EQ(snapshot.counts[2], 1);
  EXPECT_EQ(snapshot.count, 3);
  EXPECT_DOUBLE_EQ(snapshot.sum, 10.0);
}

TEST(HistogramQuantileTest, PinsInterpolatedValues) {
  MetricsRegistry registry;
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  for (const double v : {0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 5.0}) {
    registry.ObserveHistogram("h", bounds, v);
  }
  const HistogramSnapshot snapshot = HistogramValue(registry, "h");
  ASSERT_EQ(snapshot.count, 7);
  // rank 3.5 lands in bucket (2, 4] holding ranks 4..6 cumulatively 3..6:
  // fraction (3.5 - 3) / 3 of the way from 2 to 4.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 0.5),
                   2.0 + 2.0 * (0.5 / 3.0));
  EXPECT_DOUBLE_EQ(snapshot.p50, 2.0 + 2.0 * (0.5 / 3.0));
  // Ranks past the last finite bound clamp to it (the overflow bucket has
  // no upper edge to interpolate toward).
  EXPECT_DOUBLE_EQ(snapshot.p95, 4.0);
  EXPECT_DOUBLE_EQ(snapshot.p99, 4.0);
  // q=0 resolves to the lower edge of the first non-empty bucket.
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(snapshot, 1.0), 4.0);
}

TEST(HistogramQuantileTest, EmptyAndSingleBucket) {
  const HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(HistogramQuantile(empty, 0.5), 0.0);

  MetricsRegistry registry;
  registry.ObserveHistogram("one", {2.0}, 1.0);
  const HistogramSnapshot snapshot = HistogramValue(registry, "one");
  // One observation in (0, 2]: the median interpolates to the midpoint.
  EXPECT_DOUBLE_EQ(snapshot.p50, 1.0);
}

TEST(MetricsRegistryTest, SnapshotIncludesQuantiles) {
  MetricsRegistry registry;
  for (const double v : {0.5, 1.5, 1.5, 3.0, 3.0, 3.0, 5.0}) {
    registry.ObserveHistogram("h", {1.0, 2.0, 4.0}, v);
  }
  const HistogramSnapshot h = HistogramValue(registry, "h");
  EXPECT_EQ(h.upper_bounds, (std::vector<double>{1, 2, 4}));
  EXPECT_EQ(h.counts, (std::vector<int64_t>{1, 2, 3, 1}));
  EXPECT_EQ(h.count, 7);
  EXPECT_EQ(FormatDouble(h.sum), "17.5");
  EXPECT_EQ(FormatDouble(h.p50), "2.3333333333333335");
  EXPECT_EQ(FormatDouble(h.p95), "4");
  EXPECT_EQ(FormatDouble(h.p99), "4");
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndInsertionOrderFree) {
  MetricsRegistry a;
  a.IncrementCounter("zebra");
  a.IncrementCounter("alpha", 2);
  a.SetGauge("mid", 0.5);

  MetricsRegistry b;
  b.SetGauge("mid", 0.5);
  b.IncrementCounter("alpha", 2);
  b.IncrementCounter("zebra");

  const RegistrySnapshot sa = a.Snapshot(), sb = b.Snapshot();
  EXPECT_EQ(sa.counters, sb.counters);
  EXPECT_EQ(sa.gauges, sb.gauges);
  EXPECT_EQ(sa.counters,
            (std::map<std::string, int64_t>{{"alpha", 2}, {"zebra", 1}}));
  EXPECT_EQ(sa.counters.begin()->first, "alpha");
  EXPECT_EQ(sa.gauges, (std::map<std::string, double>{{"mid", 0.5}}));
}

TEST(MetricsRegistryTest, ResetDropsEverything) {
  MetricsRegistry registry;
  registry.IncrementCounter("c");
  registry.SetGauge("g", 1.0);
  registry.Reset();
  const RegistrySnapshot snapshot = registry.Snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.gauges.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(TraceTest, SpanIsFreeWhenDisabled) {
  ASSERT_FALSE(TracingEnabled());
  const int64_t before = BufferedTraceEventCount();
  {
    TraceSpan span("never.recorded");
  }
  EXPECT_EQ(BufferedTraceEventCount(), before);
}

TEST(TraceTest, SpansBufferAndFlushAsTraceJson) {
  const std::string path = TempPath("trace.json");
  EnableTracing(path);
  {
    TraceSpan outer("outer");
    TraceSpan inner("inner");
  }
  EXPECT_GE(BufferedTraceEventCount(), 2);
  ASSERT_TRUE(FlushTrace().ok());
  DisableTracing();

  const std::string trace = ReadFile(path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTest, RepeatedFlushNeverTruncates) {
  const std::string path = TempPath("trace_reflush.json");
  EnableTracing(path);
  {
    TraceSpan span("first");
  }
  ASSERT_TRUE(FlushTrace().ok());
  // A later flush (e.g. the atexit one) must still contain earlier events.
  ASSERT_TRUE(FlushTrace().ok());
  DisableTracing();
  EXPECT_NE(ReadFile(path).find("\"name\":\"first\""), std::string::npos);
}

TEST(TraceTest, ThreadPoolPartsShowUpAsPoolSlices) {
  const std::string path = TempPath("trace_pool.json");
  SetGlobalThreadCount(4);
  EnableTracing(path);
  ParallelFor(0, 1 << 14, 256, [](int64_t, int64_t) {});
  SetGlobalThreadCount(0);
  ASSERT_TRUE(FlushTrace().ok());
  DisableTracing();
  EXPECT_NE(ReadFile(path).find("\"name\":\"pool.part\""), std::string::npos);
}

TEST(StepObserverTest, StepRecordToJsonHasFixedKeyOrder) {
  StepRecord record;
  record.step = 3;
  record.attempt = 4;
  record.batch_size = 32;
  record.mean_loss = 2.5;
  record.raw_grad_norm = 1.5;
  record.clipped_grad_norm = 0.5;
  record.clip_fraction = 0.25;
  record.magnitude_noise_stddev = 0.125;
  record.direction_noise_stddev = 0.0625;
  record.beta = 0.01;
  record.sur_enabled = true;
  record.sur_accepted = false;
  record.sur_accepted_total = 2;
  record.sur_rejected_total = 1;
  record.epsilon = 0.75;
  record.rdp_order = 16;
  record.accounted_steps = 5;
  EXPECT_EQ(
      StepRecordToJson(record),
      "{\"step\":3,\"attempt\":4,\"batch_size\":32,\"empty_lot\":false,"
      "\"nonfinite_skipped\":0,"
      "\"mean_loss\":2.5,\"raw_grad_norm\":1.5,\"clipped_grad_norm\":0.5,"
      "\"clip_fraction\":0.25,\"magnitude_noise_stddev\":0.125,"
      "\"direction_noise_stddev\":0.0625,\"beta\":0.01,\"sur_enabled\":true,"
      "\"sur_accepted\":false,\"sur_accepted_total\":2,"
      "\"sur_rejected_total\":1,\"epsilon\":0.75,\"rdp_order\":16,"
      "\"accounted_steps\":5}");
}

TEST(StepObserverTest, JsonlWriterWritesOneLinePerRecord) {
  const std::string path = TempPath("steps.jsonl");
  JsonlStepWriter writer(path);
  ASSERT_TRUE(writer.status().ok());
  StepRecord record;
  for (int i = 0; i < 3; ++i) {
    record.step = i;
    writer.OnStep(record);
  }
  EXPECT_EQ(writer.records_written(), 3);

  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"step\":" + std::to_string(lines)),
              std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
}

TEST(StepObserverTest, WriterReportsUnopenablePath) {
  MetricsRegistry::Global().Reset();
  JsonlStepWriter writer("/nonexistent-dir/steps.jsonl");
  EXPECT_FALSE(writer.status().ok());
  EXPECT_EQ(CounterValue(MetricsRegistry::Global(), "obs.jsonl_open_errors"), 1);
  StepRecord record;
  writer.OnStep(record);  // must not crash
  EXPECT_EQ(writer.records_written(), 0);
  EXPECT_EQ(writer.dropped_records(), 1);
  EXPECT_EQ(CounterValue(MetricsRegistry::Global(), "obs.jsonl_write_errors"), 1);
  MetricsRegistry::Global().Reset();
}

TEST(StepObserverTest, WriterSurfacesDiskFullAsErrorStatus) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // classic silent-telemetry-loss scenario this counter exists for.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";

  MetricsRegistry::Global().Reset();
  JsonlStepWriter writer("/dev/full");
  ASSERT_TRUE(writer.status().ok());
  StepRecord record;
  writer.OnStep(record);
  writer.OnStep(record);
  EXPECT_EQ(writer.records_written(), 0);
  EXPECT_EQ(writer.dropped_records(), 2);
  EXPECT_EQ(CounterValue(MetricsRegistry::Global(), "obs.jsonl_write_errors"), 2);
  const Status status = writer.Close();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("write failed"), std::string::npos);
  // Close is idempotent and sticky.
  EXPECT_FALSE(writer.Close().ok());
  MetricsRegistry::Global().Reset();
}

TEST(StepObserverTest, CloseReportsDroppedRecords) {
  // A writer whose stream recovered (status OK) but that dropped records
  // must still fail Close(): the JSONL file is incomplete.
  MetricsRegistry::Global().Reset();
  JsonlStepWriter writer("/nonexistent-dir/steps.jsonl");
  StepRecord record;
  writer.OnStep(record);
  // Open itself failed here, so Close reports that first error.
  EXPECT_FALSE(writer.Close().ok());
  MetricsRegistry::Global().Reset();
}

// End-to-end determinism: the same training run observed at 1 and 8
// threads must serialize to byte-identical telemetry (the ParallelFor
// chunk contract makes the values bit-identical; FormatDouble makes the
// serialization a pure function of the values).
TEST(StepObserverTest, TelemetryByteIdenticalAcrossThreadCounts) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 96;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = 41;
  const InMemoryDataset train = MakeSyntheticImages(data_options);

  auto run = [&](int threads) {
    SetGlobalThreadCount(threads);
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
    std::string serialized;
    for (const StepRecord& record : observer.records()) {
      serialized += StepRecordToJson(record) + "\n";
    }
    SetGlobalThreadCount(0);
    return serialized;
  };

  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(StepObserverTest, TrainerFillsRecordsWithConsistentTelemetry) {
  SyntheticImageOptions data_options;
  data_options.num_examples = 64;
  data_options.height = 8;
  data_options.width = 8;
  data_options.seed = 51;
  const InMemoryDataset train = MakeSyntheticImages(data_options);

  Rng rng(52);
  auto model = MakeLogisticRegression(64, 10, rng);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.batch_size = 16;
  options.iterations = 6;
  options.learning_rate = 0.5;
  options.noise_multiplier = 1.0;
  options.clip_threshold = 0.1;
  options.seed = 53;
  CollectingStepObserver observer;
  options.step_observer = &observer;
  MetricsRegistry::Global().Reset();
  DpTrainer trainer(model.get(), &train, nullptr, options);
  const TrainingResult result = trainer.Run().value();

  ASSERT_EQ(observer.records().size(), 6u);
  double last_epsilon = 0.0;
  for (size_t i = 0; i < observer.records().size(); ++i) {
    const StepRecord& record = observer.records()[i];
    EXPECT_EQ(record.step, static_cast<int64_t>(i));
    EXPECT_EQ(record.batch_size, 16);
    EXPECT_FALSE(record.empty_lot);
    EXPECT_GT(record.mean_loss, 0.0);
    EXPECT_GT(record.raw_grad_norm, 0.0);
    // DP noise stddev is C * sigma / B; no direction noise for plain DP.
    EXPECT_DOUBLE_EQ(record.magnitude_noise_stddev, 0.1 * 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(record.direction_noise_stddev, 0.0);
    EXPECT_GE(record.clip_fraction, 0.0);
    EXPECT_LE(record.clip_fraction, 1.0);
    // Epsilon-so-far is monotone in accounted steps.
    EXPECT_GE(record.epsilon, last_epsilon);
    EXPECT_GT(record.epsilon, 0.0);
    EXPECT_GT(record.rdp_order, 0);
    EXPECT_EQ(record.accounted_steps, static_cast<int64_t>(i) + 1);
    last_epsilon = record.epsilon;
  }
  // The last record's epsilon matches the final report.
  EXPECT_DOUBLE_EQ(observer.records().back().epsilon, result.epsilon);
  // The global registry mirrored the run.
  EXPECT_EQ(CounterValue(MetricsRegistry::Global(), "trainer.steps"), 6);
  EXPECT_DOUBLE_EQ(GaugeValue(MetricsRegistry::Global(), "trainer.epsilon"),
                   result.epsilon);
  MetricsRegistry::Global().Reset();
}

}  // namespace
}  // namespace geodp
