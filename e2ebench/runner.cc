// End-to-end DpTrainer benchmark runner. run.py builds and runs it; see
// README.md next to this file for the workloads and metrics.
//
//   e2e_runner --workload NAME --seed N --seconds S --mode run|trace
//              --workdir DIR
//
// --mode run   Closed loop: repeats {set up, DpTrainer::Run()} until S
//              seconds have passed. Tracing and profiling stay off.
// --mode trace One untraced Run(); then, until S seconds have passed,
//              replays of the same steps that call each layer's public
//              function in the trainer's order and seeding with a span
//              around it; then one profiled Run().
//
// Either mode prints one JSON line of raw measurements and output checks.
// The program under test only ever sees inputs generated from --seed.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/io/retry.h"
#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/thread_pool.h"
#include "ckpt/checkpoint.h"
#include "clip/clipping.h"
#include "data/dataloader.h"
#include "data/synthetic_images.h"
#include "dp/privacy_ledger.h"
#include "dp/rdp_accountant.h"
#include "models/cnn.h"
#include "models/logistic_regression.h"
#include "models/mlp.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "obs/phase_profiler.h"
#include "obs/step_observer.h"
#include "optim/dp_adam.h"
#include "optim/dp_sgd.h"
#include "optim/geodp_sgd.h"
#include "optim/ghost_grad.h"
#include "optim/trainer.h"

namespace geodp {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Shared by every workload: MNIST-like data, sigma = 1, C = 0.1 (the
// paper's setting), GeoDP beta = 0.01.
constexpr int64_t kTrainExamples = 4000;
constexpr int64_t kTestExamples = 500;
constexpr int64_t kNumClasses = 10;
constexpr int64_t kMlpHidden = 768;
constexpr double kNoiseMultiplier = 1.0;
constexpr double kClipThreshold = 0.1;
constexpr double kBeta = 0.01;
// The task -- the synthetic dataset and the model's initial weights -- is
// fixed, like a real dataset and a pretrained starting point. --seed is the
// trainer's seed: it draws every batch and all DP noise. A seed-varied task
// would swamp final_loss and test_accuracy with task-to-task spread (the
// synthetic task's difficulty depends on its seed, and the wide GeoDP MLP
// barely moves from its initial accuracy).
constexpr uint64_t kTaskSeed = 1;
// Every this many replayed steps the gradient call is repeated at pool = 1
// (optim.grad.scaling and its bit-identity check).
constexpr int64_t kScalingEvery = 10;
// Set-up-only repetitions before the timed runs of --mode run.
constexpr int kSetupRepeats = 30;

struct Workload {
  const char* name;
  const char* model;  // "cnn" | "mlp" | "lr"
  PerturbationMethod method;
  const char* clip_mode;
  int64_t batch_size;
  int64_t iterations;  // per Run(); a multiple of checkpoint_every
  double learning_rate;
  int threads;
  bool poisson;
  bool adam;
  bool telemetry;
  int64_t checkpoint_every;  // 0 = no checkpoints
};

// Why each workload exists is recorded in README.md. Run() calls are kept
// to a second or two, so that one run holds many of them.
constexpr Workload kWorkloads[] = {
    {"cnn_dp_materialize", "cnn", PerturbationMethod::kDp, "materialize", 128,
     100, 2.0, 1, false, false, false, 0},
    {"mlp_geodp_wide", "mlp", PerturbationMethod::kGeoDp, "ghost", 64, 60,
     2.0, 2, false, false, false, 0},
    {"lr_geodp_supervised", "lr", PerturbationMethod::kGeoDp, "ghost", 32, 1000,
     0.003, 1, true, true, true, 25},
};

// ---------------------------------------------------------------------------
// Output checks: each named check counts attempts and failures.

class Checks {
 public:
  void Record(const std::string& name, bool ok) {
    auto& [attempted, failed] = counts_[name];
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "e2e_runner: check failed: %s\n", name.c_str());
    }
  }
  const std::map<std::string, std::pair<int64_t, int64_t>>& counts() const {
    return counts_;
  }

 private:
  std::map<std::string, std::pair<int64_t, int64_t>> counts_;
};

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Set-up: data, model, pool, options. Identical for Run() and the replay.

struct Instance {
  InMemoryDataset train;
  InMemoryDataset test;
  std::unique_ptr<Sequential> model;
};

Instance MakeInstance(const Workload& w) {
  SyntheticImageOptions data;
  data.num_examples = kTrainExamples + kTestExamples;
  data.seed = kTaskSeed;
  Instance inst;
  inst.train = MakeMnistLike(data);
  inst.test = inst.train.SplitTail(kTestExamples);
  Rng rng(kTaskSeed + 1);
  const Tensor& image = inst.train.image(0);
  const std::string model = w.model;
  if (model == "lr") {
    inst.model = MakeLogisticRegression(image.numel(), kNumClasses, rng);
  } else if (model == "mlp") {
    MlpConfig config;
    config.input_dim = image.numel();
    config.hidden_dims = {kMlpHidden};
    config.num_classes = kNumClasses;
    inst.model = MakeMlp(config, rng);
  } else {
    CnnConfig config;
    config.in_channels = image.dim(0);
    config.image_size = image.dim(1);
    config.num_classes = kNumClasses;
    inst.model = MakeCnn(config, rng);
  }
  SetGlobalThreadCount(w.threads);
  return inst;
}

TrainerOptions MakeOptions(const Workload& w, uint64_t seed,
                           const std::string& ckpt_dir,
                           StepObserver* observer) {
  TrainerOptions options;
  options.method = w.method;
  options.batch_size = w.batch_size;
  options.iterations = w.iterations;
  options.learning_rate = w.learning_rate;
  options.clip_threshold = kClipThreshold;
  options.noise_multiplier = kNoiseMultiplier;
  options.beta = kBeta;
  options.clip_mode = w.clip_mode;
  options.poisson_sampling = w.poisson;
  options.use_adam = w.adam;
  options.seed = seed + 2;
  options.record_loss_every = 0;
  options.step_observer = observer;
  if (w.checkpoint_every > 0) {
    options.checkpoint_every = w.checkpoint_every;
    options.checkpoint_dir = ckpt_dir;
  }
  return options;
}

// A fresh directory for one run's telemetry file and checkpoints.
std::string FreshDir(const std::string& workdir, const std::string& label) {
  const fs::path dir = fs::path(workdir) / label;
  fs::remove_all(dir);
  fs::create_directories(dir / "ckpt");
  return dir.string();
}

std::pair<int64_t, int64_t> DirFilesAndBytes(const std::string& dir) {
  int64_t files = 0;
  int64_t bytes = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    bytes += static_cast<int64_t>(entry.file_size());
  }
  return {files, bytes};
}

int64_t CountLines(const std::string& path) {
  std::ifstream in(path);
  int64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// One closed-loop run through the public trainer API.

struct TimedRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  bool ok = false;
  TrainingResult result;
  Tensor final_params;
  int64_t ckpt_files = 0;
  int64_t ckpt_bytes = 0;
};

// Set-up as a caller does it: data, model, pool, telemetry sink, trainer.
struct Prepared {
  Instance inst;
  std::unique_ptr<JsonlStepWriter> writer;
  std::unique_ptr<DpTrainer> trainer;
};

std::unique_ptr<Prepared> Prepare(const Workload& w, uint64_t seed,
                                  const std::string& dir) {
  auto p = std::make_unique<Prepared>();
  p->inst = MakeInstance(w);
  if (w.telemetry) {
    p->writer = std::make_unique<JsonlStepWriter>(dir + "/steps.jsonl");
  }
  p->trainer = std::make_unique<DpTrainer>(
      p->inst.model.get(), &p->inst.train, &p->inst.test,
      MakeOptions(w, seed, dir + "/ckpt", p->writer.get()));
  return p;
}

// Sets up and runs one DpTrainer in `dir`, then applies the output checks
// that need only the run itself.
TimedRun RunOnce(const Workload& w, uint64_t seed, const std::string& dir,
                 Checks& checks) {
  TimedRun out;
  const std::string ckpt_dir = dir + "/ckpt";
  const std::string jsonl_path = dir + "/steps.jsonl";
  const Clock::time_point t0 = Clock::now();
  const std::unique_ptr<Prepared> prepared = Prepare(w, seed, dir);
  const Clock::time_point t1 = Clock::now();
  StatusOr<TrainingResult> run = prepared->trainer->Run();
  const Clock::time_point t2 = Clock::now();
  out.setup_s = Seconds(t0, t1);
  out.run_s = Seconds(t1, t2);

  out.ok = run.ok();
  checks.Record("run_ok", out.ok);
  if (!out.ok) {
    std::fprintf(stderr, "e2e_runner: Run() failed: %s\n",
                 run.status().ToString().c_str());
    return out;
  }
  out.result = std::move(run).value();
  out.final_params = FlattenValues(prepared->inst.model->Parameters());
  checks.Record("finite_loss_and_epsilon",
                std::isfinite(out.result.final_train_loss) &&
                    std::isfinite(out.result.epsilon) &&
                    out.result.epsilon > 0.0);
  if (JsonlStepWriter* writer = prepared->writer.get()) {
    const bool closed = writer->Close().ok();
    checks.Record("jsonl_records_equal_steps",
                  closed && writer->dropped_records() == 0 &&
                      writer->records_written() == w.iterations &&
                      CountLines(jsonl_path) == w.iterations);
  }
  if (w.checkpoint_every > 0) {
    StatusOr<FoundCheckpoint> found = FindLatestGoodCheckpoint(ckpt_dir);
    bool matches = found.ok() &&
                   found.value().checkpoint.next_attempt == w.iterations;
    if (matches) {
      const std::vector<Tensor>& values =
          found.value().checkpoint.param_values;
      std::vector<float> flat;
      for (const Tensor& value : values) {
        flat.insert(flat.end(), value.data(), value.data() + value.numel());
      }
      matches = BitIdentical(Tensor::Vector(std::move(flat)),
                             out.final_params);
    }
    checks.Record("newest_checkpoint_matches_final_weights", matches);
    std::tie(out.ckpt_files, out.ckpt_bytes) = DirFilesAndBytes(ckpt_dir);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Outside-in tracing for the replay: spans kept in memory, written at exit.

enum Layer {
  kSample,
  kGrad,
  kPerturb,
  kAccountant,
  kLedger,
  kUpdate,
  kTelemetry,
  kCkptSave,
  kEval,
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "data.sample",   "optim.grad",    "core.perturb",
    "dp.accountant", "dp.ledger",     "optim.update",
    "obs.telemetry", "ckpt.save",     "optim.eval"};

struct SpanRecord {
  Layer layer;
  int64_t start_ns;
  int64_t end_ns;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  void Add(Layer layer, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({layer, start_ns, end_ns});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  Span(Tracer& tracer, Layer layer)
      : tracer_(tracer), layer_(layer), start_(tracer.Now()) {}
  ~Span() { tracer_.Add(layer_, start_, tracer_.Now()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
  int64_t start_;
};

struct ReplayOutcome {
  Tensor final_params;
  double wall_s = 0.0;  // steps + final evaluation, side measurements excluded
  double zero_fraction = 0.0;
  double scaling_t1_us = 0.0;
  double scaling_tn_us = 0.0;
  int64_t ckpt_save_bytes = 0;
  int64_t ckpt_save_failures = 0;
  int64_t telemetry_bytes = 0;
  int64_t telemetry_dropped = 0;
};

// The fields DpTrainer's BuildStepRecord fills, from the same inputs.
StepRecord MakeStepRecord(const PrivateBatchGradient& grads,
                          const Perturber& perturber, const Clipper& clipper,
                          const RdpAccountant& accountant,
                          const TrainerOptions& options, int64_t step,
                          int64_t flat_dim) {
  StepRecord record;
  record.step = step;
  record.attempt = step;
  record.batch_size = grads.batch_size;
  record.empty_lot = grads.batch_size == 0;
  record.nonfinite_skipped = grads.nonfinite_skipped;
  record.mean_loss = record.empty_lot ? 0.0 : grads.mean_loss;
  record.raw_grad_norm = grads.averaged_raw.L2Norm();
  record.clipped_grad_norm = grads.averaged_clipped.L2Norm();
  if (!grads.sample_grad_norms.empty()) {
    int64_t clipped = 0;
    for (const double norm : grads.sample_grad_norms) {
      if (norm > clipper.clip_threshold()) ++clipped;
    }
    record.clip_fraction =
        static_cast<double>(clipped) /
        static_cast<double>(grads.sample_grad_norms.size());
  }
  const NoiseStddevs stddevs = perturber.Stddevs(flat_dim);
  record.magnitude_noise_stddev = stddevs.magnitude;
  record.direction_noise_stddev = stddevs.direction;
  record.beta = options.beta;
  record.sur_accepted = true;
  const RdpSnapshot snapshot = accountant.Snapshot(Delta(options.delta));
  record.epsilon = snapshot.epsilon;
  record.rdp_order = snapshot.optimal_order;
  record.accounted_steps = snapshot.total_steps;
  return record;
}

// Replays Run()'s steps for the configurations the workloads use (no SUR,
// importance sampling or adaptive beta), calling each layer's public
// function with the trainer's arguments and RNG streams.
ReplayOutcome Replay(const Workload& w, uint64_t seed, const std::string& dir,
                     Tracer& tracer, Checks& checks) {
  ReplayOutcome out;
  Instance inst = MakeInstance(w);
  const std::string ckpt_dir = dir + "/ckpt";
  const std::string jsonl_path = dir + "/steps.jsonl";
  const TrainerOptions options = MakeOptions(w, seed, ckpt_dir, nullptr);
  Sequential& model = *inst.model;
  const InMemoryDataset& train = inst.train;
  std::unique_ptr<JsonlStepWriter> writer;
  if (w.telemetry) writer = std::make_unique<JsonlStepWriter>(jsonl_path);

  // Same construction order as DpTrainer::Run(): the noise stream forks
  // first, then each sampler draws its seed from the parent stream.
  Rng rng(options.seed);
  Rng noise_rng = rng.Fork();
  const std::vector<Parameter*> params = model.Parameters();
  const int64_t flat_dim = TotalParameterCount(params);
  PerturbationOptions base;
  base.clip_threshold = options.clip_threshold;
  base.batch_size = options.batch_size;
  base.noise_multiplier = options.noise_multiplier;
  const std::unique_ptr<Perturber> perturber = MakePerturberForMethod(
      options.method, base, options.beta, options.angle_handling);
  const std::unique_ptr<Clipper> clipper =
      MakeClipper(options.clipper, ClipThreshold(options.clip_threshold));
  const double sampling_rate = static_cast<double>(options.batch_size) /
                               static_cast<double>(train.size());
  BatchSampler uniform_sampler(train.size(), options.batch_size, rng.Next());
  PoissonSampler poisson_sampler(train.size(), sampling_rate, rng.Next());
  FlatAdam adam(flat_dim,
                AdamOptions{.learning_rate = options.learning_rate});
  SoftmaxCrossEntropy loss;
  RdpAccountant accountant;
  PrivacyLedger ledger;
  const bool ghost = options.clip_mode == "ghost";
  const bool record_norms = writer != nullptr;
  const auto gradients = [&](const std::vector<int64_t>& batch) {
    return ghost ? ComputeGhostClippedGradients(model, loss, train, batch,
                                                *clipper, record_norms)
                 : ComputePerSampleGradients(model, loss, train, batch,
                                             *clipper, record_norms);
  };

  int64_t excluded_ns = 0;  // side measurements, not part of the step
  int64_t zeros = 0;
  const int64_t begin_ns = tracer.Now();
  for (int64_t step = 0; step < options.iterations; ++step) {
    clipper->OnStep(step);
    std::vector<int64_t> batch;
    {
      const Span span(tracer, kSample);
      batch = options.poisson_sampling ? poisson_sampler.NextBatch()
                                       : uniform_sampler.NextBatch();
    }
    PrivateBatchGradient grads;
    if (batch.empty()) {
      grads.averaged_clipped = Tensor({flat_dim});
      grads.averaged_raw = Tensor({flat_dim});
    } else {
      const int64_t grad_start = tracer.Now();
      {
        const Span span(tracer, kGrad);
        grads = gradients(batch);
      }
      const int64_t grad_end = tracer.Now();
      if (step % kScalingEvery == 0) {
        const int64_t side_start = tracer.Now();
        SetGlobalThreadCount(1);
        const int64_t t1_start = tracer.Now();
        const PrivateBatchGradient serial = gradients(batch);
        const int64_t t1_end = tracer.Now();
        SetGlobalThreadCount(w.threads);
        out.scaling_t1_us += static_cast<double>(t1_end - t1_start) / 1e3;
        out.scaling_tn_us += static_cast<double>(grad_end - grad_start) / 1e3;
        checks.Record(
            "pool1_gradients_bit_identical",
            BitIdentical(serial.averaged_clipped, grads.averaged_clipped) &&
                BitIdentical(serial.averaged_raw, grads.averaged_raw) &&
                SameBits(serial.mean_loss, grads.mean_loss));
        excluded_ns += tracer.Now() - side_start;
      }
    }
    if (options.poisson_sampling && !batch.empty()) {
      const float rescale = static_cast<float>(batch.size()) /
                            static_cast<float>(options.batch_size);
      grads.averaged_clipped.ScaleInPlace(rescale);
      grads.averaged_raw.ScaleInPlace(rescale);
    }
    Tensor noisy;
    {
      const Span span(tracer, kPerturb);
      noisy = perturber->Perturb(grads.averaged_clipped, noise_rng);
    }
    {
      const int64_t side_start = tracer.Now();
      for (int64_t i = 0; i < noisy.numel(); ++i) {
        if (noisy.data()[i] == 0.0f) ++zeros;
      }
      excluded_ns += tracer.Now() - side_start;
    }
    {
      const Span span(tracer, kAccountant);
      accountant.AddSubsampledGaussianSteps(
          NoiseMultiplier(options.noise_multiplier),
          SamplingRate(sampling_rate), 1);
    }
    {
      const Span span(tracer, kLedger);
      ledger.RecordSubsampledGaussianCoalesced(
          NoiseMultiplier(options.noise_multiplier),
          SamplingRate(sampling_rate), "dp-sgd step");
    }
    {
      const Span span(tracer, kUpdate);
      if (options.use_adam) {
        adam.Step(params, noisy);
      } else {
        ApplyFlatUpdate(params, noisy, options.learning_rate);
      }
    }
    if (writer != nullptr) {
      const Span span(tracer, kTelemetry);
      writer->OnStep(MakeStepRecord(grads, *perturber, *clipper, accountant,
                                    options, step, flat_dim));
    }
    if (options.checkpoint_every > 0 &&
        (step + 1) % options.checkpoint_every == 0) {
      TrainingCheckpoint ckpt;
      ckpt.next_attempt = step + 1;
      ckpt.accepted_updates = step + 1;
      ckpt.current_beta = options.beta;
      for (const Parameter* param : params) {
        ckpt.param_names.push_back(param->name);
        ckpt.param_values.push_back(param->value);
      }
      ckpt.noise_rng = noise_rng.ExportState();
      ckpt.uniform_sampler = uniform_sampler.ExportState();
      ckpt.poisson_rng = poisson_sampler.ExportState();
      ckpt.adam = adam.ExportState();
      ckpt.accountant_orders = accountant.orders();
      ckpt.accountant_rdp = accountant.cumulative_rdp();
      ckpt.accountant_steps = accountant.total_steps();
      ckpt.ledger_events = ledger.events();
      ckpt.options_fingerprint = "e2ebench-replay";
      const std::string path = ckpt_dir + "/" + CheckpointFileName(step + 1);
      Status saved;
      {
        const Span span(tracer, kCkptSave);
        saved = SaveTrainingCheckpoint(ckpt, path);
        if (saved.ok()) PruneOldCheckpoints(ckpt_dir, options.checkpoint_keep);
      }
      if (saved.ok()) {
        out.ckpt_save_bytes += static_cast<int64_t>(fs::file_size(path));
      } else {
        ++out.ckpt_save_failures;
      }
    }
  }
  {
    const Span span(tracer, kEval);
    (void)EvaluateMeanLoss(model, train, /*max_examples=*/0);
  }
  if (inst.test.size() > 0) {
    const Span span(tracer, kEval);
    (void)EvaluateAccuracy(model, inst.test);
  }
  out.wall_s = static_cast<double>(tracer.Now() - begin_ns - excluded_ns) / 1e9;
  out.final_params = FlattenValues(params);
  out.zero_fraction = static_cast<double>(zeros) /
                      static_cast<double>(options.iterations * flat_dim);
  if (writer != nullptr) {
    (void)writer->Close();
    out.telemetry_dropped = writer->dropped_records();
    out.telemetry_bytes = static_cast<int64_t>(fs::file_size(jsonl_path));
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON output.

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

std::string List(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Num(values[i]);
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + raw;
    return *this;
  }
  JsonObject& Add(const std::string& key, double value) {
    return Add(key, Num(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string ChecksJson(const Checks& checks) {
  JsonObject json;
  for (const auto& [name, counts] : checks.counts()) {
    json.Add(name, "[" + std::to_string(counts.first) + "," +
                       std::to_string(counts.second) + "]");
  }
  return json.str();
}

JsonObject CommonJson(const Workload& w, const std::string& mode) {
  JsonObject json;
  json.Add("mode", Quote(mode))
      .Add("workload", Quote(w.name))
      .Add("simd", Quote(SimdTierName(ActiveSimdTier())))
      .Add("threads", w.threads)
      .Add("batch", static_cast<double>(w.batch_size))
      .Add("steps", static_cast<double>(w.iterations));
  return json;
}

JsonObject ResultJson(JsonObject json, const TrainingResult& result) {
  json.Add("final_loss", result.final_train_loss)
      .Add("test_accuracy", result.test_accuracy)
      .Add("epsilon", result.epsilon);
  return json;
}

// ---------------------------------------------------------------------------
// Modes.

int RunMode(const Workload& w, uint64_t seed, double seconds,
            const std::string& workdir) {
  Checks checks;
  std::vector<double> setup_s;
  std::vector<double> run_s;
  // Set-up alone, repeated: a steadier setup_s percentile than the few runs
  // of a slow workload give, and a warm-up for the timed runs.
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string dir = FreshDir(workdir, "setup");
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<Prepared> prepared = Prepare(w, seed, dir);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  TimedRun first;
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep == 0 || Seconds(start, Clock::now()) < seconds;
       ++rep) {
    const std::string dir = FreshDir(workdir, "run");
    TimedRun run = RunOnce(w, seed, dir, checks);
    setup_s.push_back(run.setup_s);
    run_s.push_back(run.run_s);
    if (rep == 0) {
      first = std::move(run);
    } else if (first.ok && run.ok) {
      checks.Record(
          "repeat_runs_identical",
          BitIdentical(first.final_params, run.final_params) &&
              SameBits(first.result.final_train_loss,
                       run.result.final_train_loss) &&
              SameBits(first.result.test_accuracy,
                       run.result.test_accuracy) &&
              SameBits(first.result.epsilon, run.result.epsilon));
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  JsonObject json = ResultJson(CommonJson(w, "run"), first.result);
  json.Add("setup_s", List(setup_s))
      .Add("run_s", List(run_s))
      .Add("peak_rss_kb", static_cast<double>(usage.ru_maxrss))
      .Add("checks", ChecksJson(checks));
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int TraceMode(const Workload& w, uint64_t seed, double seconds,
              const std::string& workdir) {
  Checks checks;
  IoStats& io = IoStats::Global();
  const int64_t retries0 = io.retries.load();
  const int64_t giveups0 = io.giveups.load();

  const TimedRun run = RunOnce(w, seed, FreshDir(workdir, "run"), checks);

  // Replays repeat until `seconds` have passed; spans from all of them pool.
  Tracer tracer;
  std::vector<double> replay_wall_s;
  double scaling_t1_us = 0.0;
  double scaling_tn_us = 0.0;
  int64_t ckpt_save_failures = 0;
  int64_t telemetry_dropped = 0;
  ReplayOutcome replay;
  const Clock::time_point start = Clock::now();
  do {
    replay = Replay(w, seed, FreshDir(workdir, "replay"), tracer, checks);
    replay_wall_s.push_back(replay.wall_s);
    scaling_t1_us += replay.scaling_t1_us;
    scaling_tn_us += replay.scaling_tn_us;
    ckpt_save_failures += replay.ckpt_save_failures;
    telemetry_dropped += replay.telemetry_dropped;
    checks.Record("replay_params_bit_identical_to_run",
                  run.ok && BitIdentical(run.final_params, replay.final_params));
  } while (Seconds(start, Clock::now()) < seconds);

  // In-program cross-check: the trainer's own phase profiler, one more Run().
  EnableProfiling("");
  const TimedRun profiled =
      RunOnce(w, seed, FreshDir(workdir, "profiled"), checks);
  const ProfileSnapshot profile = SnapshotProfile();
  DisableProfiling();
  checks.Record("profiled_run_bit_identical_to_run",
                run.ok && profiled.ok &&
                    BitIdentical(run.final_params, profiled.final_params));

  std::vector<std::vector<double>> layer_us(kNumLayers);
  for (const SpanRecord& span : tracer.spans()) {
    layer_us[span.layer].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  JsonObject layers_json;
  for (int layer = 0; layer < kNumLayers; ++layer) {
    layers_json.Add(kLayerNames[layer], List(layer_us[layer]));
  }
  // Phases of the main-thread step tree (paths start at "step"), merged by
  // phase name: [count, total_us, self_us].
  std::map<std::string, std::vector<double>> phases;
  for (const PhaseStats& phase : profile.phases) {
    if (phase.path.rfind("step", 0) != 0) continue;
    std::vector<double>& merged = phases[phase.name];
    merged.resize(3, 0.0);
    merged[0] += static_cast<double>(phase.count);
    merged[1] += static_cast<double>(phase.total_micros);
    merged[2] += static_cast<double>(phase.self_micros);
  }
  JsonObject profile_json;
  for (const auto& [name, merged] : phases) {
    profile_json.Add(name, List(merged));
  }

  JsonObject json = ResultJson(CommonJson(w, "trace"), run.result);
  json.Add("layers", layers_json.str())
      .Add("replay_wall_s", List(replay_wall_s))
      .Add("run_wall_s", run.run_s)
      .Add("zero_fraction", replay.zero_fraction)
      .Add("scaling_t1_us", scaling_t1_us)
      .Add("scaling_tn_us", scaling_tn_us)
      .Add("ckpt_save_bytes", static_cast<double>(replay.ckpt_save_bytes))
      .Add("ckpt_save_failures", static_cast<double>(ckpt_save_failures))
      .Add("telemetry_bytes", static_cast<double>(replay.telemetry_bytes))
      .Add("telemetry_dropped", static_cast<double>(telemetry_dropped))
      .Add("io_retries", static_cast<double>(io.retries.load() - retries0))
      .Add("io_giveups", static_cast<double>(io.giveups.load() - giveups0))
      .Add("ckpt_files_after_run", static_cast<double>(run.ckpt_files))
      .Add("ckpt_bytes_after_run", static_cast<double>(run.ckpt_bytes))
      .Add("profile", profile_json.str())
      .Add("checks", ChecksJson(checks));
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_runner: %s\nusage: e2e_runner --workload NAME --seed N "
               "--seconds S --mode run|trace --workdir DIR\n",
               why);
  return 2;
}

}  // namespace
}  // namespace geodp

int main(int argc, char** argv) {
  using namespace geodp;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  for (const char* key : {"workload", "seed", "seconds", "mode", "workdir"}) {
    if (args.count(key) == 0) return Usage("missing a flag");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage("unknown workload");
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (args["seed"].empty() || *end != '\0') return Usage("bad --seed");
  const double seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0.0)) return Usage("bad --seconds");
  if (args["mode"] == "run") {
    return RunMode(*workload, seed, seconds, args["workdir"]);
  }
  if (args["mode"] == "trace") {
    return TraceMode(*workload, seed, seconds, args["workdir"]);
  }
  return Usage("unknown --mode");
}
