#include "optim/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <ios>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "base/check.h"
#include "base/fault_injection.h"
#include "base/io/file_io.h"
#include "base/io/retry.h"
#include "base/rng.h"
#include "base/timer.h"
#include "base/units.h"
#include "ckpt/checkpoint.h"
#include "clip/clipping.h"
#include "data/dataloader.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/adaptive_beta.h"
#include "optim/dp_sgd.h"
#include "optim/ghost_grad.h"
#include "optim/techniques.h"

namespace geodp {
namespace {

// Fills one StepRecord from the step's intermediates. Only called when an
// observer or a status publisher is attached, so none of this costs the
// plain training path.
StepRecord BuildStepRecord(const PrivateBatchGradient& grads,
                           const Perturber& perturber, const Clipper& clipper,
                           const RdpAccountant& accountant,
                           const TrainerOptions& options, int64_t step,
                           int64_t attempt, double current_beta,
                           bool step_accepted,
                           const SelectiveUpdater& selective,
                           int64_t flat_dim) {
  StepRecord record;
  record.step = step;
  record.attempt = attempt;
  record.batch_size = grads.batch_size;
  record.empty_lot = grads.batch_size == 0;
  record.nonfinite_skipped = grads.nonfinite_skipped;
  record.mean_loss = record.empty_lot ? 0.0 : grads.mean_loss;
  record.raw_grad_norm = grads.averaged_raw.L2Norm();
  record.clipped_grad_norm = grads.averaged_clipped.L2Norm();
  // Pre-clip norms feed the clip-fraction telemetry only; the released
  // gradient itself is clipped in the clip-accumulate path.
  if (!grads.sample_grad_norms.empty()) {  // geodp: sensitivity-checked
    int64_t clipped = 0;
    // geodp: sensitivity-checked
    for (const double norm : grads.sample_grad_norms) {
      if (norm > clipper.clip_threshold()) ++clipped;
    }
    record.clip_fraction =
        static_cast<double>(clipped) /
        static_cast<double>(
            grads.sample_grad_norms.size());  // geodp: sensitivity-checked
  }
  const NoiseStddevs stddevs = perturber.Stddevs(flat_dim);
  record.magnitude_noise_stddev = stddevs.magnitude;
  record.direction_noise_stddev = stddevs.direction;
  record.beta = current_beta;
  record.sur_enabled = options.selective_update;
  record.sur_accepted = step_accepted;
  record.sur_accepted_total = selective.accepted();
  record.sur_rejected_total = selective.rejected();
  const RdpSnapshot snapshot = accountant.Snapshot(Delta(options.delta));
  record.epsilon = snapshot.epsilon;
  record.rdp_order = snapshot.optimal_order;
  record.accounted_steps = snapshot.total_steps;
  return record;
}

// Trailing window length (in attempts) of the epsilon burn-rate estimate:
// long enough to smooth the accountant's early nonlinearity, short enough
// to track a regime change within a few dozen steps.
constexpr size_t kBurnRateWindowSteps = 32;

// Derives dp.eps_burn_rate / dp.eps_steps_to_exhaustion from the RDP
// accountant trend: a sliding window of (attempt, epsilon) samples.
// Epsilon per attempt (not per accepted step) because every attempt —
// SUR-rejected ones included — spends budget. Pure function of the
// deterministic epsilon sequence, so the derived telemetry is as
// thread-count-invariant as the accountant itself.
class EpsilonBurnTracker {
 public:
  void Observe(int64_t attempt, double epsilon) {
    if (!window_.empty() && window_.back().first >= attempt) return;
    window_.emplace_back(attempt, epsilon);
    if (window_.size() > kBurnRateWindowSteps) window_.pop_front();
  }

  /// Epsilon spent per attempt over the window; 0 until two samples.
  double rate() const {
    if (window_.size() < 2) return 0.0;
    const int64_t attempts = window_.back().first - window_.front().first;
    if (attempts <= 0) return 0.0;
    return (window_.back().second - window_.front().second) /
           static_cast<double>(attempts);
  }

  /// Projected attempts until `budget` is exhausted at the current rate:
  /// -1 when unknowable (no budget, no samples, or zero rate), 0 once the
  /// budget is already spent.
  double StepsToExhaustion(double budget) const {
    if (budget <= 0.0 || window_.empty()) return -1.0;
    const double remaining = budget - window_.back().second;
    if (remaining <= 0.0) return 0.0;
    const double per_attempt = rate();
    if (per_attempt <= 0.0) return -1.0;
    return remaining / per_attempt;
  }

 private:
  std::deque<std::pair<int64_t, double>> window_;
};

// Mirrors one StepRecord into the global metrics registry (the source the
// /metrics endpoint and MetricsRegistry::ToJsonl serve from).
void MirrorStepMetrics(const StepRecord& record,
                       const TrainerOptions& options) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.IncrementCounter("trainer.steps");
  if (record.empty_lot) registry.IncrementCounter("trainer.empty_lots");
  if (record.nonfinite_skipped > 0) {
    registry.IncrementCounter("trainer.nonfinite_samples",
                              record.nonfinite_skipped);
  }
  if (options.selective_update) {
    registry.IncrementCounter(record.sur_accepted ? "trainer.sur_accepted"
                                                  : "trainer.sur_rejected");
  }
  if (!record.empty_lot) {
    registry.ObserveHistogram("trainer.clip_fraction",
                              {0.1, 0.25, 0.5, 0.75, 0.9, 1.0},
                              record.clip_fraction);
  }
  registry.SetGauge("trainer.epsilon", record.epsilon);
}

// Background thread that watches for a wedged training loop: the loop
// heartbeats once per attempt, and when no heartbeat lands for the
// configured timeout the watchdog flips a sticky `stalled` flag. The loop
// polls it at each attempt boundary and cancels cooperatively — the
// watchdog never kills anything itself, so the final checkpoint flush
// always runs. Uses the R1-safe process clock (base/timer.h).
class StallWatchdog {
 public:
  explicit StallWatchdog(int64_t timeout_ms)
      : timeout_us_(timeout_ms * 1000),
        last_beat_us_(Timer::ProcessMicros()),
        thread_([this] { Loop(); }) {}

  ~StallWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  /// Called by the training loop once per attempt.
  void Heartbeat() {
    last_beat_us_.store(Timer::ProcessMicros(), std::memory_order_relaxed);
  }

  /// Sticky: true once any heartbeat gap exceeded the timeout.
  bool stalled() const { return stalled_.load(std::memory_order_relaxed); }

 private:
  void Loop() {
    // Check a few times per timeout window so detection latency stays a
    // fraction of the timeout without busy-polling.
    const auto interval =
        std::chrono::microseconds(std::max<int64_t>(timeout_us_ / 4, 1000));
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, interval, [this] { return stop_; });
      if (stop_) return;
      const int64_t gap_us =
          Timer::ProcessMicros() -
          last_beat_us_.load(std::memory_order_relaxed);
      if (gap_us >= timeout_us_ && !stalled_.exchange(true)) {
        std::fprintf(stderr,
                     "trainer: stall watchdog fired (no step for %lld ms); "
                     "cancelling at the next attempt boundary\n",
                     static_cast<long long>(gap_us / 1000));
      }
    }
  }

  const int64_t timeout_us_;
  std::atomic<int64_t> last_beat_us_;
  std::atomic<bool> stalled_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

// Canonical string of every option that shapes the training trajectory.
// Stored in each checkpoint and compared on resume, so a checkpoint can
// never silently continue a differently-configured run. `iterations` is
// deliberately excluded: resuming with a larger bound extends training,
// and the first steps of a run do not depend on when it will stop.
// Doubles are rendered as hexfloat, so the comparison is bit-exact.
std::string OptionsFingerprint(const TrainerOptions& o, int64_t train_size) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "v2"
      << "|method=" << static_cast<int>(o.method)
      << "|train_size=" << train_size
      << "|batch=" << o.batch_size
      << "|lr=" << o.learning_rate
      << "|clip=" << o.clip_threshold
      << "|sigma=" << o.noise_multiplier
      << "|beta=" << o.beta
      << "|adaptive_beta=" << o.adaptive_beta
      << "|beta_floor=" << o.adaptive_beta_floor
      << "|angles=" << static_cast<int>(o.angle_handling)
      << "|clipper=" << o.clipper
      << "|clip_mode=" << o.clip_mode
      << "|poisson=" << o.poisson_sampling
      << "|is=" << o.importance_sampling
      << "|sur=" << o.selective_update
      << "|sur_tol=" << o.sur_tolerance
      << "|sur_eval=" << o.sur_eval_examples
      << "|adam=" << o.use_adam
      << "|delta=" << o.delta
      << "|seed=" << o.seed
      << "|record_loss=" << o.record_loss_every;
  return out.str();
}

}  // namespace

Status ValidateTrainerOptions(const TrainerOptions& options,
                              int64_t train_size) {
  if (train_size <= 0) {
    return Status::InvalidArgument("training dataset is empty");
  }
  if (options.batch_size <= 0) {
    return Status::InvalidArgument(
        "batch_size must be positive, got " +
        std::to_string(options.batch_size));
  }
  if (options.batch_size > train_size) {
    return Status::InvalidArgument(
        "batch_size " + std::to_string(options.batch_size) +
        " exceeds dataset size " + std::to_string(train_size));
  }
  if (options.iterations <= 0) {
    return Status::InvalidArgument(
        "iterations must be positive, got " +
        std::to_string(options.iterations));
  }
  if (!(options.learning_rate > 0.0)) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  if (!(options.clip_threshold > 0.0)) {
    return Status::InvalidArgument("clip_threshold must be positive");
  }
  if (!IsKnownClipper(options.clipper)) {
    return Status::InvalidArgument(
        "unknown clipper \"" + options.clipper +
        "\" (expected \"flat\", \"AUTO-S\", or \"PSAC\")");
  }
  if (options.clip_mode != "materialize" && options.clip_mode != "ghost") {
    return Status::InvalidArgument(
        "unknown clip_mode \"" + options.clip_mode +
        "\" (expected \"materialize\" or \"ghost\")");
  }
  if (!(options.noise_multiplier >= 0.0)) {
    return Status::InvalidArgument("noise_multiplier must be >= 0");
  }
  if (!(options.beta > 0.0 && options.beta <= 1.0)) {
    return Status::InvalidArgument("beta must be in (0, 1]");
  }
  if (!(options.delta > 0.0 && options.delta < 1.0)) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  if (options.selective_update && options.sur_eval_examples <= 0) {
    return Status::InvalidArgument(
        "sur_eval_examples must be positive when selective_update is on");
  }
  if (!(options.sur_tolerance >= 0.0)) {
    return Status::InvalidArgument("sur_tolerance must be >= 0");
  }
  if (options.checkpoint_every < 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 0");
  }
  if (options.checkpoint_every > 0 && options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "checkpoint_every > 0 requires checkpoint_dir");
  }
  if (options.checkpoint_keep < 1) {
    return Status::InvalidArgument("checkpoint_keep must be >= 1");
  }
  if (options.max_missed_checkpoints < 0) {
    return Status::InvalidArgument("max_missed_checkpoints must be >= 0");
  }
  if (options.stall_timeout_ms < 0) {
    return Status::InvalidArgument("stall_timeout_ms must be >= 0");
  }
  return Status::Ok();
}

DpTrainer::DpTrainer(Sequential* model, const InMemoryDataset* train,
                     const InMemoryDataset* test, TrainerOptions options)
    : model_(model), train_(train), test_(test), options_(options) {
  // Null pointers are programming errors; everything value-shaped is
  // validated by Run() so callers get a Status instead of an abort.
  GEODP_CHECK(model_ != nullptr);  // geodp: check-ok
  GEODP_CHECK(train_ != nullptr);  // geodp: check-ok
}

TrainingResult DpTrainer::Train() {
  StatusOr<TrainingResult> result = Run();
  GEODP_CHECK(result.ok()) << result.status().ToString();  // geodp: check-ok
  return std::move(result).value();
}

StatusOr<TrainingResult> DpTrainer::Run() {
  const Status valid = ValidateTrainerOptions(options_, train_->size());
  if (!valid.ok()) return valid;
  const bool ghost_clipping = options_.clip_mode == "ghost";
  if (ghost_clipping && !GhostClipSupported(*model_)) {
    return Status::InvalidArgument(
        "clip_mode \"ghost\" requires every model layer to support ghost "
        "clipping; use clip_mode \"materialize\" for this model");
  }

  Rng rng(options_.seed);
  Rng noise_rng = rng.Fork();

  const std::vector<Parameter*> params = model_->Parameters();
  const int64_t flat_dim = TotalParameterCount(params);

  PerturbationOptions base;
  base.clip_threshold = options_.clip_threshold;
  base.batch_size = options_.batch_size;
  base.noise_multiplier = options_.noise_multiplier;
  std::unique_ptr<Perturber> perturber = MakePerturberForMethod(
      options_.method, base, options_.beta, options_.angle_handling);
  AdaptiveBetaController beta_controller(options_.adaptive_beta_floor, 1.0);
  const bool adapt_beta =
      options_.adaptive_beta && options_.method == PerturbationMethod::kGeoDp;
  double current_beta = options_.beta;

  const std::unique_ptr<Clipper> clipper =
      MakeClipper(options_.clipper, ClipThreshold(options_.clip_threshold));

  BatchSampler uniform_sampler(train_->size(), options_.batch_size,
                               rng.Next());
  PoissonSampler poisson_sampler(train_->size(),
                                 static_cast<double>(options_.batch_size) /
                                     static_cast<double>(train_->size()),
                                 rng.Next());
  ImportanceSampler importance_sampler(train_->size(), options_.batch_size,
                                       rng.Next());
  SelectiveUpdater selective(options_.sur_tolerance);
  FlatAdam adam(flat_dim, AdamOptions{.learning_rate =
                                          options_.learning_rate});
  SoftmaxCrossEntropy loss;
  RdpAccountant accountant;
  const double sampling_rate = static_cast<double>(options_.batch_size) /
                               static_cast<double>(train_->size());
  const std::string fingerprint =
      OptionsFingerprint(options_, train_->size());

  TrainingResult result;
  int64_t accepted_updates = 0;
  int64_t start_attempt = 0;
  std::string last_checkpoint_path;

  if (!options_.resume_from.empty()) {
    StatusOr<FoundCheckpoint> found =
        FindLatestGoodCheckpoint(options_.resume_from);
    if (!found.ok()) return found.status();
    last_checkpoint_path = found.value().path;
    const TrainingCheckpoint& c = found.value().checkpoint;
    if (c.options_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          "checkpoint " + found.value().path +
          " was written by a differently-configured run; refusing to "
          "resume (got \"" + c.options_fingerprint + "\", want \"" +
          fingerprint + "\")");
    }
    // Validate every restored shape before mutating anything, so a
    // mismatched checkpoint leaves the model and trainer untouched.
    if (c.param_names.size() != params.size()) {
      return Status::FailedPrecondition(
          "checkpoint parameter count mismatch");
    }
    for (size_t i = 0; i < params.size(); ++i) {
      if (c.param_names[i] != params[i]->name ||
          c.param_values[i].shape() != params[i]->value.shape()) {
        return Status::FailedPrecondition(
            "checkpoint parameter mismatch at \"" + c.param_names[i] +
            "\"");
      }
    }
    if (static_cast<int64_t>(c.uniform_sampler.order.size()) !=
            train_->size() ||
        c.uniform_sampler.cursor < 0 ||
        c.uniform_sampler.cursor > train_->size()) {
      return Status::FailedPrecondition(
          "checkpoint batch-sampler state does not fit this dataset");
    }
    if (static_cast<int64_t>(c.importance_sampler.weights.size()) !=
            train_->size() ||
        c.importance_sampler.seen.size() !=
            c.importance_sampler.weights.size()) {
      return Status::FailedPrecondition(
          "checkpoint importance-sampler state does not fit this dataset");
    }
    if (c.adam.m.numel() != flat_dim || c.adam.v.numel() != flat_dim ||
        c.adam.step < 0) {
      return Status::FailedPrecondition(
          "checkpoint optimizer state does not fit this model");
    }
    if (c.beta_controller.observations < 0 ||
        c.beta_controller.min_angle.size() !=
            c.beta_controller.max_angle.size()) {
      return Status::FailedPrecondition(
          "checkpoint adaptive-beta state is inconsistent");
    }
    if (c.sur_accepted < 0 || c.sur_rejected < 0) {
      return Status::FailedPrecondition(
          "checkpoint SUR counters are inconsistent");
    }
    const Status accounting = accountant.RestoreState(
        c.accountant_orders, c.accountant_rdp, c.accountant_steps);
    if (!accounting.ok()) return accounting;

    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = c.param_values[i];
    }
    noise_rng.ImportState(c.noise_rng);
    uniform_sampler.ImportState(c.uniform_sampler);
    poisson_sampler.ImportState(c.poisson_rng);
    importance_sampler.ImportState(c.importance_sampler);
    adam.ImportState(c.adam);
    beta_controller.ImportState(c.beta_controller);
    selective.RestoreCounts(c.sur_accepted, c.sur_rejected);
    result.ledger.RestoreEvents(c.ledger_events);
    result.loss_iterations = c.loss_iterations;
    result.loss_history = c.loss_history;
    result.empty_lots = c.empty_lots;
    result.nonfinite_skipped = c.nonfinite_skipped;
    current_beta = c.current_beta;
    if (adapt_beta) {
      perturber = MakePerturberForMethod(options_.method, base, current_beta,
                                         options_.angle_handling);
    }
    accepted_updates = c.accepted_updates;
    start_attempt = c.next_attempt;
    FlightRecorder::Global().Record(FlightEventKind::kResume, start_attempt,
                                    "resumed from " + last_checkpoint_path);
  }

  // SUR (DPSUR semantics): a rejected update does not count as a training
  // iteration — the loop keeps drawing fresh noisy updates (each spending
  // privacy budget) until one is accepted, up to an attempt cap.
  const int64_t max_attempts = options_.selective_update
                                   ? 3 * options_.iterations
                                   : options_.iterations;
  StepObserver* const observer = options_.step_observer;
  const bool observing = observer != nullptr;
  TrainingStatusPublisher* const publisher = options_.status_publisher;
  const bool publishing = publisher != nullptr;
  const bool checkpointing = options_.checkpoint_every > 0;
  FaultInjector& faults = FaultInjector::Global();
  FlightRecorder& recorder = FlightRecorder::Global();

  // -- Resilience state -------------------------------------------------
  // Sticky once any observability sink loses data: training continues,
  // the obs.degraded gauge flips, /healthz reports "degraded".
  bool degraded = false;
  int64_t missed_checkpoints = 0;  // consecutive write failures skipped
  bool warned_missed = false;
  bool warned_prune = false;
  // Baselines for mirroring the dependency-free base/io tallies into the
  // metrics registry as this run's io.retries / io.giveups deltas.
  IoStats& io_stats = IoStats::Global();
  int64_t mirrored_retries = io_stats.retries.load(std::memory_order_relaxed);
  int64_t mirrored_giveups = io_stats.giveups.load(std::memory_order_relaxed);
  const auto mirror_io_stats = [&] {
    const int64_t retries = io_stats.retries.load(std::memory_order_relaxed);
    const int64_t giveups = io_stats.giveups.load(std::memory_order_relaxed);
    if (retries > mirrored_retries) {
      MetricsRegistry::Global().IncrementCounter("io.retries",
                                                 retries - mirrored_retries);
      recorder.Record(FlightEventKind::kIoRetry, accepted_updates,
                      "+" + std::to_string(retries - mirrored_retries) +
                          " io retries");
      mirrored_retries = retries;
    }
    if (giveups > mirrored_giveups) {
      MetricsRegistry::Global().IncrementCounter("io.giveups",
                                                 giveups - mirrored_giveups);
      recorder.Record(FlightEventKind::kIoGiveup, accepted_updates,
                      "+" + std::to_string(giveups - mirrored_giveups) +
                          " io giveups");
      mirrored_giveups = giveups;
    }
  };
  // Dumps the flight-recorder buffer as an atomic postmortem file next to
  // the checkpoints (checkpointing off = nowhere agreed to write).
  // Best-effort observability: a failed dump never changes the run's
  // fate, and the write fires its own "obs.postmortem" fault site so
  // chaos schedules armed at other sites draw the same random sequence
  // with or without postmortems.
  const auto flush_postmortem = [&](const char* reason,
                                    const std::string& detail,
                                    int64_t attempts_done) {
    if (!checkpointing || !recorder.enabled()) return;
    PostmortemInfo info;
    info.reason = reason;
    info.detail = detail;
    info.step = accepted_updates;
    info.attempt = attempts_done;
    info.epsilon = accountant.Snapshot(Delta(options_.delta)).epsilon;
    info.degraded = degraded;
    const std::string path =
        options_.checkpoint_dir + "/" + PostmortemFileName(attempts_done);
    (void)AtomicWriteFile(path, PostmortemJson(info, recorder.Snapshot()),
                          RetryPolicy{}, "obs.postmortem");
  };
  const auto note_degraded = [&](const char* what, int64_t attempts_done) {
    if (degraded) return;
    degraded = true;
    MetricsRegistry::Global().SetGauge("obs.degraded", 1.0);
    recorder.Record(FlightEventKind::kDegraded, accepted_updates, what);
    std::fprintf(stderr,
                 "trainer: %s is failing; continuing degraded (training "
                 "unaffected, telemetry may be incomplete)\n",
                 what);
    flush_postmortem("degraded", what, attempts_done);
  };
  if (observing || publishing) {
    MetricsRegistry::Global().SetGauge("obs.degraded", 0.0);
  }
  std::unique_ptr<StallWatchdog> watchdog;
  if (options_.stall_timeout_ms > 0) {
    watchdog = std::make_unique<StallWatchdog>(options_.stall_timeout_ms);
  }

  // Copy-on-publish status for the introspection server. Reporting only:
  // nothing the trainer computes depends on whether a publisher is set, so
  // the trajectory (and the JSONL bytes) are identical either way.
  StepRecord last_record;
  bool have_record = false;
  EpsilonBurnTracker burn_tracker;
  const auto publish_status = [&](const char* run_state, int64_t step,
                                  int64_t attempts_done,
                                  const StepRecord* record) {
    TrainingStatusSnapshot snap;
    snap.run_state = run_state;
    snap.options_fingerprint = fingerprint;
    snap.step = step;
    snap.attempt = attempts_done;
    snap.iterations = options_.iterations;
    if (record != nullptr) {
      snap.has_last_record = true;
      snap.last_record = *record;
      snap.epsilon_spent = record->epsilon;
    } else {
      snap.epsilon_spent = accountant.Snapshot(Delta(options_.delta)).epsilon;
    }
    snap.epsilon_budget = options_.epsilon_budget;
    snap.delta = options_.delta;
    snap.degraded = degraded;
    snap.eps_burn_rate = burn_tracker.rate();
    snap.eps_steps_to_exhaustion =
        burn_tracker.StepsToExhaustion(options_.epsilon_budget);
    snap.checkpoint_dir = options_.checkpoint_dir;
    snap.latest_checkpoint = last_checkpoint_path;
    publisher->Publish(std::move(snap));
  };
  if (publishing) {
    publish_status("training", accepted_updates, start_attempt, nullptr);
  }

  // Builds and writes the full-state checkpoint for `next_attempt`.
  // Shared by the periodic in-loop save and the cancellation flush.
  const auto save_checkpoint = [&](int64_t next_attempt) -> Status {
    TrainingCheckpoint ckpt;
    ckpt.next_attempt = next_attempt;
    ckpt.accepted_updates = accepted_updates;
    ckpt.loss_iterations = result.loss_iterations;
    ckpt.loss_history = result.loss_history;
    ckpt.empty_lots = result.empty_lots;
    ckpt.nonfinite_skipped = result.nonfinite_skipped;
    ckpt.sur_accepted = selective.accepted();
    ckpt.sur_rejected = selective.rejected();
    ckpt.current_beta = current_beta;
    ckpt.param_names.reserve(params.size());
    ckpt.param_values.reserve(params.size());
    for (const Parameter* param : params) {
      ckpt.param_names.push_back(param->name);
      ckpt.param_values.push_back(param->value);
    }
    ckpt.noise_rng = noise_rng.ExportState();
    ckpt.uniform_sampler = uniform_sampler.ExportState();
    ckpt.poisson_rng = poisson_sampler.ExportState();
    ckpt.importance_sampler = importance_sampler.ExportState();
    ckpt.adam = adam.ExportState();
    ckpt.accountant_orders = accountant.orders();
    ckpt.accountant_rdp = accountant.cumulative_rdp();
    ckpt.accountant_steps = accountant.total_steps();
    ckpt.ledger_events = result.ledger.events();
    ckpt.beta_controller = beta_controller.ExportState();
    ckpt.options_fingerprint = fingerprint;
    const std::string path =
        options_.checkpoint_dir + "/" + CheckpointFileName(next_attempt);
    const Status saved = SaveTrainingCheckpoint(ckpt, path);
    if (saved.ok()) {
      last_checkpoint_path = path;
      recorder.Record(FlightEventKind::kCheckpointWrite, next_attempt, path);
    }
    return saved;
  };

  bool cancelled = false;
  int64_t attempt = start_attempt;
  for (; attempt < max_attempts && accepted_updates < options_.iterations;
       ++attempt) {
    if (watchdog != nullptr) {
      if (watchdog->stalled()) {
        cancelled = true;
        break;
      }
      watchdog->Heartbeat();
    }
    const TraceSpan step_span("step");
    const int64_t t = accepted_updates;
    clipper->OnStep(t);
    const std::vector<int64_t> batch =
        options_.poisson_sampling
            ? poisson_sampler.NextBatch()
            : (options_.importance_sampling ? importance_sampler.NextBatch()
                                            : uniform_sampler.NextBatch());
    PrivateBatchGradient grads;
    if (batch.empty()) {
      // A Poisson draw can be empty: the "lot" contributes zero gradient
      // and the step is pure noise. Its loss is undefined and its
      // direction carries no signal, so it is excluded from loss_history
      // and from the adaptive-beta envelope below; the step telemetry
      // counts it instead.
      grads.averaged_clipped = Tensor({flat_dim});
      grads.averaged_raw = Tensor({flat_dim});
      grads.batch_size = 0;
      ++result.empty_lots;
    } else {
      grads = ghost_clipping
                  ? ComputeGhostClippedGradients(
                        *model_, loss, *train_, batch, *clipper,
                        /*record_sample_norms=*/observing || publishing)
                  : ComputePerSampleGradients(
                        *model_, loss, *train_, batch, *clipper,
                        /*record_sample_norms=*/observing || publishing);
      result.nonfinite_skipped += grads.nonfinite_skipped;
    }
    if (options_.poisson_sampling && !batch.empty()) {
      // Renormalize: divide the clipped sum by the nominal lot size B
      // rather than the realized batch size.
      const float rescale = static_cast<float>(batch.size()) /
                            static_cast<float>(options_.batch_size);
      grads.averaged_clipped.ScaleInPlace(rescale);
      grads.averaged_raw.ScaleInPlace(rescale);
    }
    if (options_.importance_sampling && !options_.poisson_sampling) {
      for (size_t j = 0; j < batch.size(); ++j) {
        importance_sampler.UpdateLoss(batch[j], grads.sample_losses[j]);
      }
    }

    if (adapt_beta && !batch.empty()) {
      beta_controller.Observe(ToSpherical(grads.averaged_clipped));
      current_beta = beta_controller.CurrentBeta();
      perturber = MakePerturberForMethod(options_.method, base, current_beta,
                                         options_.angle_handling);
    }
    const Tensor noisy = perturber->Perturb(grads.averaged_clipped, noise_rng);
    if (options_.method != PerturbationMethod::kNoiseFree &&
        options_.noise_multiplier > 0.0) {
      const TraceSpan accounting_span("step.accounting");
      accountant.AddSubsampledGaussianSteps(
          NoiseMultiplier(options_.noise_multiplier),
          SamplingRate(sampling_rate), 1);
      result.ledger.RecordSubsampledGaussianCoalesced(
          NoiseMultiplier(options_.noise_multiplier),
          SamplingRate(sampling_rate), "dp-sgd step");
    }

    bool step_accepted = true;
    if (options_.selective_update) {
      // Snapshot, apply, test, revert on failure.
      const TraceSpan sur_span("step.sur_eval");
      const Tensor snapshot = FlattenValues(params);
      const double loss_before = EvaluateMeanLoss(
          *model_, *train_, options_.sur_eval_examples);
      if (options_.use_adam) {
        adam.Step(params, noisy);
      } else {
        ApplyFlatUpdate(params, noisy, options_.learning_rate);
      }
      const double loss_after = EvaluateMeanLoss(
          *model_, *train_, options_.sur_eval_examples);
      if (selective.ShouldAccept(loss_before, loss_after)) {
        ++accepted_updates;
      } else {
        SetValuesFromFlat(params, snapshot);
        step_accepted = false;  // rejected attempts do not advance training
      }
    } else {
      const TraceSpan apply_span("step.optimizer_apply");
      if (options_.use_adam) {
        adam.Step(params, noisy);
      } else {
        ApplyFlatUpdate(params, noisy, options_.learning_rate);
      }
      ++accepted_updates;
    }

    if (step_accepted && !batch.empty() && options_.record_loss_every > 0 &&
        (t % options_.record_loss_every == 0 ||
         t == options_.iterations - 1)) {
      result.loss_iterations.push_back(t);
      result.loss_history.push_back(grads.mean_loss);
    }

    recorder.Record(FlightEventKind::kStepMilestone, attempt + 1,
                    "accepted=" + std::to_string(accepted_updates));

    if (observing || publishing) {
      const StepRecord record = BuildStepRecord(
          grads, *perturber, *clipper, accountant, options_, t, attempt,
          current_beta, step_accepted, selective, flat_dim);
      if (observing) observer->OnStep(record);
      if (observing && !observer->healthy()) {
        note_degraded("the telemetry sink", attempt + 1);
      }
      MirrorStepMetrics(record, options_);
      burn_tracker.Observe(attempt + 1, record.epsilon);
      MetricsRegistry::Global().SetGauge("dp.eps_burn_rate",
                                         burn_tracker.rate());
      MetricsRegistry::Global().SetGauge(
          "dp.eps_steps_to_exhaustion",
          burn_tracker.StepsToExhaustion(options_.epsilon_budget));
      mirror_io_stats();
      if (publishing) {
        last_record = record;
        have_record = true;
      }
    }

    if (checkpointing && (attempt + 1) % options_.checkpoint_every == 0) {
      const TraceSpan ckpt_span("step.checkpoint");
      const Status saved = save_checkpoint(attempt + 1);
      if (!saved.ok()) {
        // The write already exhausted its own errno retries. Skip it and
        // keep training — epsilon spent on completed steps is
        // unrecoverable, so aborting here wastes budget — but bound the
        // debt: too many consecutive misses means the next crash would
        // lose more work than the operator allowed.
        ++missed_checkpoints;
        MetricsRegistry::Global().IncrementCounter("ckpt.missed");
        recorder.Record(FlightEventKind::kCheckpointMiss, attempt + 1,
                        saved.message());
        if (missed_checkpoints > options_.max_missed_checkpoints) {
          const Status fatal(
              saved.code(),
              saved.message() + " (" + std::to_string(missed_checkpoints) +
                  " consecutive checkpoint(s) missed, bound is " +
                  std::to_string(options_.max_missed_checkpoints) + ")");
          recorder.Record(FlightEventKind::kStatusError, attempt + 1,
                          fatal.message());
          flush_postmortem("fatal_status", fatal.message(), attempt + 1);
          return fatal;
        }
        if (!warned_missed) {
          warned_missed = true;
          std::fprintf(stderr,
                       "trainer: checkpoint write failed (%s); skipping "
                       "(miss %lld of %lld allowed)\n",
                       saved.message().c_str(),
                       static_cast<long long>(missed_checkpoints),
                       static_cast<long long>(
                           options_.max_missed_checkpoints));
        }
      } else {
        missed_checkpoints = 0;
        const int64_t prune_errors = PruneOldCheckpoints(
            options_.checkpoint_dir, options_.checkpoint_keep);
        if (prune_errors > 0) {
          // Never fatal: a stale checkpoint file costs disk, not
          // correctness. Counted so operators see the leak.
          MetricsRegistry::Global().IncrementCounter("ckpt.prune_errors",
                                                     prune_errors);
          recorder.Record(FlightEventKind::kCheckpointPrune, attempt + 1,
                          std::to_string(prune_errors) + " prune error(s)");
          if (!warned_prune) {
            warned_prune = true;
            std::fprintf(stderr,
                         "trainer: failed to prune %lld old checkpoint "
                         "file(s) in %s; continuing\n",
                         static_cast<long long>(prune_errors),
                         options_.checkpoint_dir.c_str());
          }
        }
        // Piggyback a postmortem on every successful checkpoint: a later
        // hard kill (SIGKILL, _Exit) gets no chance to flush anything, so
        // the black box must already be on disk — its attempt equals the
        // checkpoint's resume point by construction.
        flush_postmortem("checkpoint", last_checkpoint_path, attempt + 1);
      }
    }

    if (publishing) {
      publish_status("training", accepted_updates, attempt + 1,
                     have_record ? &last_record : nullptr);
    }

    faults.Fire("trainer.step");
  }

  if (cancelled) {
    // Cooperative cancellation: flush a final checkpoint so the epsilon
    // already spent stays resumable, report, and return kCancelled.
    std::string detail = "training cancelled by the stall watchdog after " +
                         std::to_string(attempt) + " attempt(s)";
    recorder.Record(FlightEventKind::kWatchdogCancel, attempt, detail);
    if (checkpointing) {
      const Status flushed = save_checkpoint(attempt);
      detail += flushed.ok()
                    ? "; final checkpoint flushed to " + last_checkpoint_path
                    : "; final checkpoint flush failed: " + flushed.message();
    }
    flush_postmortem("watchdog_cancel", detail, attempt);
    if (observing || publishing) mirror_io_stats();
    if (publishing) {
      publish_status("cancelled", accepted_updates, attempt,
                     have_record ? &last_record : nullptr);
    }
    return Status::Cancelled(detail);
  }

  result.final_train_loss =
      EvaluateMeanLoss(*model_, *train_, /*max_examples=*/0);
  if (test_ != nullptr && test_->size() > 0) {
    result.test_accuracy = EvaluateAccuracy(*model_, *test_);
  }
  if (options_.method != PerturbationMethod::kNoiseFree &&
      options_.noise_multiplier > 0.0) {
    result.epsilon = accountant.GetEpsilon(Delta(options_.delta));
  }
  result.sur_accepted = selective.accepted();
  result.sur_rejected = selective.rejected();
  result.final_beta = adapt_beta ? current_beta : options_.beta;
  if (observing || publishing) mirror_io_stats();
  if (publishing) {
    publish_status("finished", accepted_updates, attempt,
                   have_record ? &last_record : nullptr);
  }
  return result;
}

}  // namespace geodp
