#include "optim/trainer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <ios>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
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

// SUR (DPSUR semantics) retries a rejected attempt with a fresh noisy
// update, each spending privacy budget; a run stops after this many
// attempts per requested iteration.
constexpr int64_t kSurAttemptsPerIteration = 3;

// Upper bounds of the trainer.clip_fraction histogram buckets.
constexpr double kClipFractionBuckets[] = {0.1, 0.25, 0.5, 0.75, 0.9, 1.0};

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
        thread_([this](std::stop_token stop) { Loop(stop); }) {}
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Called by the training loop once per attempt: true (sticky) once a
  /// heartbeat gap exceeded the timeout, else records a heartbeat.
  bool Poll() {
    if (stalled_.load(std::memory_order_relaxed)) return true;
    last_beat_us_.store(Timer::ProcessMicros(), std::memory_order_relaxed);
    return false;
  }

 private:
  void Loop(std::stop_token stop) {
    // Check a few times per timeout window so detection latency stays a
    // fraction of the timeout without busy-polling.
    const auto interval =
        std::chrono::microseconds(std::max<int64_t>(timeout_us_ / 4, 1000));
    std::mutex mu;
    std::condition_variable_any wake;
    std::unique_lock<std::mutex> lock(mu);
    // Wakes once per interval until destruction requests a stop.
    while (!wake.wait_for(lock, stop, interval,
                          [&stop] { return stop.stop_requested(); })) {
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
  std::jthread thread_;  // last: stopped and joined first on destruction
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

// Everything one run reads and mutates. The first block is fixed for the
// run. The second is what a GDPK checkpoint carries, and ToCheckpoint and
// Restore are the only code that maps it to the file's fields.
struct RunState {
  RunState(const TrainerOptions& run_options, Sequential& run_model,
           const InMemoryDataset& train_set)
      : options(run_options), model(run_model), train(train_set) {
    SetBeta(options.beta);
  }

  /// Sets the GeoDP bounding factor and rebuilds the perturber for it.
  void SetBeta(double beta) {
    PerturbationOptions base;
    base.clip_threshold = options.clip_threshold;
    base.batch_size = options.batch_size;
    base.noise_multiplier = options.noise_multiplier;
    current_beta = beta;
    perturber = MakePerturberForMethod(options.method, base, beta,
                                       options.angle_handling);
  }

  TrainingCheckpoint ToCheckpoint(int64_t next_attempt) const {
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
    return ckpt;
  }

  /// Each component validates its own part of `c`. The parameters are
  /// written last, so a rejected checkpoint leaves the model untouched.
  Status Restore(const TrainingCheckpoint& c) {
    if (c.options_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          "written by a differently-configured run (got \"" +
          c.options_fingerprint + "\", want \"" + fingerprint + "\")");
    }
    if (c.param_names.size() != params.size()) {
      return Status::FailedPrecondition("parameter count mismatch");
    }
    for (size_t i = 0; i < params.size(); ++i) {
      if (c.param_names[i] != params[i]->name ||
          c.param_values[i].shape() != params[i]->value.shape()) {
        return Status::FailedPrecondition("parameter mismatch at \"" +
                                          c.param_names[i] + "\"");
      }
    }
    const Status restored[] = {
        accountant.RestoreState(c.accountant_orders, c.accountant_rdp,
                                c.accountant_steps),
        uniform_sampler.ImportState(c.uniform_sampler),
        importance_sampler.ImportState(c.importance_sampler),
        adam.ImportState(c.adam),
        beta_controller.ImportState(c.beta_controller),
        selective.RestoreCounts(c.sur_accepted, c.sur_rejected),
    };
    for (const Status& status : restored) {
      if (!status.ok()) return status;
    }
    noise_rng.ImportState(c.noise_rng);
    poisson_sampler.ImportState(c.poisson_rng);
    result.ledger.RestoreEvents(c.ledger_events);
    result.loss_iterations = c.loss_iterations;
    result.loss_history = c.loss_history;
    result.empty_lots = c.empty_lots;
    result.nonfinite_skipped = c.nonfinite_skipped;
    SetBeta(c.current_beta);
    accepted_updates = c.accepted_updates;
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = c.param_values[i];
    }
    return Status::Ok();
  }

  const TrainerOptions& options;
  Sequential& model;
  const InMemoryDataset& train;
  const std::vector<Parameter*> params = model.Parameters();
  const int64_t flat_dim = TotalParameterCount(params);
  const double sampling_rate = static_cast<double>(options.batch_size) /
                               static_cast<double>(train.size());
  const bool accounted = options.method != PerturbationMethod::kNoiseFree &&
                         options.noise_multiplier > 0.0;  // spends budget
  const bool adapt_beta =
      options.adaptive_beta && options.method == PerturbationMethod::kGeoDp;
  // An observer or a status publisher wants per-step records.
  const bool reporting = options.step_observer != nullptr ||
                         options.status_publisher != nullptr;
  const std::string fingerprint = OptionsFingerprint(options, train.size());
  const std::unique_ptr<Clipper> clipper =
      MakeClipper(options.clipper, ClipThreshold(options.clip_threshold));
  SoftmaxCrossEntropy loss;
  std::unique_ptr<Perturber> perturber;

  // Declaration order fixes the RNG streams, and e2ebench's replay relies
  // on it: the noise stream forks first, then the uniform, Poisson and
  // importance samplers each draw one seed. `seeds` is not checkpointed.
  Rng seeds{options.seed};
  Rng noise_rng = seeds.Fork();
  BatchSampler uniform_sampler{train.size(), options.batch_size, seeds.Next()};
  PoissonSampler poisson_sampler{train.size(), sampling_rate, seeds.Next()};
  ImportanceSampler importance_sampler{train.size(), options.batch_size,
                                       seeds.Next()};
  FlatAdam adam{flat_dim, AdamOptions{.learning_rate = options.learning_rate}};
  RdpAccountant accountant;
  AdaptiveBetaController beta_controller{options.adaptive_beta_floor, 1.0};
  SelectiveUpdater selective{options.sur_tolerance};
  TrainingResult result;
  double current_beta = 0.0;
  int64_t accepted_updates = 0;
};

// Fills one StepRecord from the step's intermediates. Only called when an
// observer or a status publisher is attached, so none of this costs the
// plain training path.
StepRecord BuildStepRecord(const RunState& s, const PrivateBatchGradient& grads,
                           int64_t step, int64_t attempt, bool step_accepted) {
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
      if (norm > s.clipper->clip_threshold()) ++clipped;
    }
    record.clip_fraction =
        static_cast<double>(clipped) /
        static_cast<double>(
            grads.sample_grad_norms.size());  // geodp: sensitivity-checked
  }
  const NoiseStddevs stddevs = s.perturber->Stddevs(s.flat_dim);
  record.magnitude_noise_stddev = stddevs.magnitude;
  record.direction_noise_stddev = stddevs.direction;
  record.beta = s.current_beta;
  record.sur_enabled = s.options.selective_update;
  record.sur_accepted = step_accepted;
  record.sur_accepted_total = s.selective.accepted();
  record.sur_rejected_total = s.selective.rejected();
  const RdpSnapshot snapshot = s.accountant.Snapshot(Delta(s.options.delta));
  record.epsilon = snapshot.epsilon;
  record.rdp_order = snapshot.optimal_order;
  record.accounted_steps = snapshot.total_steps;
  return record;
}

// -- Step stages: one plain function each, under one profiler span -------

// sample: draws the lot (Poisson, importance-weighted or uniform).
std::vector<int64_t> SampleLot(RunState& s) {
  const TraceSpan span("step.sample");
  if (s.options.poisson_sampling) return s.poisson_sampler.NextBatch();
  if (s.options.importance_sampling) return s.importance_sampler.NextBatch();
  return s.uniform_sampler.NextBatch();
}

// gradients: clips each example's gradient and averages over the lot. An
// empty Poisson lot makes the step pure noise; with no loss and no
// direction it is kept out of loss_history and the adaptive-beta envelope
// and counted in empty_lots instead.
PrivateBatchGradient ComputeGradients(RunState& s,
                                      const std::vector<int64_t>& batch) {
  const TraceSpan span("step.gradients");
  s.clipper->OnStep(s.accepted_updates);
  PrivateBatchGradient grads;
  if (batch.empty()) {
    grads.averaged_clipped = Tensor({s.flat_dim});
    grads.averaged_raw = Tensor({s.flat_dim});
    ++s.result.empty_lots;
    return grads;
  }
  grads = s.options.clip_mode == "ghost"
              ? ComputeGhostClippedGradients(s.model, s.loss, s.train, batch,
                                             *s.clipper, s.reporting)
              : ComputePerSampleGradients(s.model, s.loss, s.train, batch,
                                          *s.clipper, s.reporting);
  s.result.nonfinite_skipped += grads.nonfinite_skipped;
  if (s.options.poisson_sampling) {
    // Renormalize by the nominal lot size B, not the realized one.
    const float rescale = static_cast<float>(batch.size()) /
                          static_cast<float>(s.options.batch_size);
    grads.averaged_clipped.ScaleInPlace(rescale);
    grads.averaged_raw.ScaleInPlace(rescale);
  }
  if (s.options.importance_sampling) {
    for (size_t j = 0; j < batch.size(); ++j) {
      s.importance_sampler.UpdateLoss(batch[j], grads.sample_losses[j]);
    }
  }
  return grads;
}

// release: adapts beta to the observed direction (GeoDP only), perturbs
// the averaged clipped gradient, and charges the accountant and ledger.
Tensor Release(RunState& s, const PrivateBatchGradient& grads) {
  const TraceSpan span("step.release");
  if (s.adapt_beta && grads.batch_size > 0) {
    s.beta_controller.Observe(ToSpherical(grads.averaged_clipped));
    s.SetBeta(s.beta_controller.CurrentBeta());
  }
  Tensor noisy = s.perturber->Perturb(grads.averaged_clipped, s.noise_rng);
  if (s.accounted) {
    const TraceSpan accounting_span("step.accounting");
    const NoiseMultiplier sigma(s.options.noise_multiplier);
    const SamplingRate q(s.sampling_rate);
    s.accountant.AddSubsampledGaussianSteps(sigma, q, 1);
    s.result.ledger.RecordSubsampledGaussianCoalesced(sigma, q, "dp-sgd step");
  }
  return noisy;
}

// update: applies the release with SGD or Adam; returns whether the
// attempt counts. Under SUR (DPSUR semantics) an update that fails the
// accept test on a validation slice is reverted and does not count.
bool Update(RunState& s, const Tensor& noisy) {
  const bool sur = s.options.selective_update;
  const TraceSpan span(sur ? "step.sur_eval" : "step.optimizer_apply");
  const int64_t eval_examples = s.options.sur_eval_examples;
  Tensor snapshot;
  double loss_before = 0.0;
  if (sur) {
    snapshot = FlattenValues(s.params);
    loss_before = EvaluateMeanLoss(s.model, s.train, eval_examples);
  }
  if (s.options.use_adam) {
    s.adam.Step(s.params, noisy);
  } else {
    ApplyFlatUpdate(s.params, noisy, s.options.learning_rate);
  }
  if (sur) {
    const double loss_after = EvaluateMeanLoss(s.model, s.train, eval_examples);
    if (!s.selective.ShouldAccept(loss_before, loss_after)) {
      SetValuesFromFlat(s.params, snapshot);
      return false;
    }
  }
  ++s.accepted_updates;
  return true;
}

// Supervision: everything that watches the run rather than shapes it —
// checkpoint writes and the miss policy, the stall watchdog, degraded
// mode, postmortems, I/O-stat mirroring and status publishing. Nothing
// here feeds back into the weights or the JSONL bytes.
class RunSupervisor {
 public:
  // `resumed_from` names the checkpoint the run resumed from, if any.
  RunSupervisor(const RunState& state, std::string resumed_from)
      : state_(state), last_checkpoint_path_(std::move(resumed_from)) {
    if (state.reporting) {
      MetricsRegistry::Global().SetGauge("obs.degraded", 0.0);
    }
  }

  // Polled at each attempt boundary: true once the watchdog saw a stall.
  bool Stalled() { return watchdog_ != nullptr && watchdog_->Poll(); }

  // Hands the attempt's record to the observer and the metrics registry.
  void Observe(const StepRecord& record, int64_t attempts_done) {
    StepObserver* const observer = options_.step_observer;
    if (observer != nullptr) {
      observer->OnStep(record);
      if (!observer->healthy()) {
        NoteDegraded("the telemetry sink", attempts_done);
      }
    }
    // Mirror the record into the metrics registry /metrics serves from.
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.IncrementCounter("trainer.steps");
    if (record.empty_lot) registry.IncrementCounter("trainer.empty_lots");
    if (record.nonfinite_skipped > 0) {
      registry.IncrementCounter("trainer.nonfinite_samples",
                                record.nonfinite_skipped);
    }
    if (options_.selective_update) {
      registry.IncrementCounter(record.sur_accepted ? "trainer.sur_accepted"
                                                    : "trainer.sur_rejected");
    }
    if (!record.empty_lot) {
      const std::vector<double> buckets(std::begin(kClipFractionBuckets),
                                        std::end(kClipFractionBuckets));
      registry.ObserveHistogram("trainer.clip_fraction", buckets,
                                record.clip_fraction);
    }
    registry.SetGauge("trainer.epsilon", record.epsilon);
    burn_tracker_.Observe(attempts_done, record.epsilon);
    registry.SetGauge("dp.eps_burn_rate", burn_tracker_.rate());
    registry.SetGauge("dp.eps_steps_to_exhaustion",
                      burn_tracker_.StepsToExhaustion(options_.epsilon_budget));
    MirrorIoStats();
    last_record_ = record;
  }

  // checkpoint: writes the periodic checkpoint when one is due. A failed
  // write (its errno retries already spent) is skipped, since aborting
  // would waste the unrecoverable epsilon of completed steps; only more
  // than max_missed_checkpoints consecutive misses are returned as fatal.
  Status Checkpoint(int64_t attempts_done) {
    if (options_.checkpoint_every == 0 ||
        attempts_done % options_.checkpoint_every != 0) {
      return Status::Ok();
    }
    const TraceSpan span("step.checkpoint");
    const Status saved = WriteCheckpoint(attempts_done);
    if (saved.ok()) {
      missed_checkpoints_ = 0;
      const int64_t prune_errors = PruneOldCheckpoints(
          options_.checkpoint_dir, options_.checkpoint_keep);
      if (prune_errors > 0) {
        // Never fatal: a stale checkpoint file costs disk, not
        // correctness. Counted so operators see the leak.
        MetricsRegistry::Global().IncrementCounter("ckpt.prune_errors",
                                                   prune_errors);
        recorder_.Record(FlightEventKind::kCheckpointPrune, attempts_done,
                         std::to_string(prune_errors) + " prune error(s)");
        if (!std::exchange(warned_prune_, true)) {
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
      FlushPostmortem("checkpoint", last_checkpoint_path_, attempts_done);
      return Status::Ok();
    }
    ++missed_checkpoints_;
    MetricsRegistry::Global().IncrementCounter("ckpt.missed");
    recorder_.Record(FlightEventKind::kCheckpointMiss, attempts_done,
                     saved.message());
    if (missed_checkpoints_ > options_.max_missed_checkpoints) {
      const Status fatal(
          saved.code(),
          saved.message() + " (" + std::to_string(missed_checkpoints_) +
              " consecutive checkpoint(s) missed, bound is " +
              std::to_string(options_.max_missed_checkpoints) + ")");
      recorder_.Record(FlightEventKind::kStatusError, attempts_done,
                       fatal.message());
      FlushPostmortem("fatal_status", fatal.message(), attempts_done);
      return fatal;
    }
    if (!std::exchange(warned_missed_, true)) {
      std::fprintf(stderr,
                   "trainer: checkpoint write failed (%s); skipping (miss "
                   "%lld of %lld allowed)\n",
                   saved.message().c_str(),
                   static_cast<long long>(missed_checkpoints_),
                   static_cast<long long>(options_.max_missed_checkpoints));
    }
    return Status::Ok();
  }

  // Copy-on-publish status for the introspection server; a no-op without
  // a publisher.
  void Publish(const char* run_state, int64_t attempts_done) {
    TrainingStatusPublisher* const publisher = options_.status_publisher;
    if (publisher == nullptr) return;
    TrainingStatusSnapshot snap;
    snap.run_state = run_state;
    snap.options_fingerprint = state_.fingerprint;
    snap.step = state_.accepted_updates;
    snap.attempt = attempts_done;
    snap.iterations = options_.iterations;
    snap.has_last_record = last_record_.has_value();
    if (last_record_.has_value()) snap.last_record = *last_record_;
    snap.epsilon_spent =
        last_record_.has_value()
            ? last_record_->epsilon
            : state_.accountant.Snapshot(Delta(options_.delta)).epsilon;
    snap.epsilon_budget = options_.epsilon_budget;
    snap.delta = options_.delta;
    snap.degraded = degraded_;
    snap.eps_burn_rate = burn_tracker_.rate();
    snap.eps_steps_to_exhaustion =
        burn_tracker_.StepsToExhaustion(options_.epsilon_budget);
    snap.checkpoint_dir = options_.checkpoint_dir;
    snap.latest_checkpoint = last_checkpoint_path_;
    publisher->Publish(std::move(snap));
  }

  // Watchdog cancellation: flushes a final checkpoint, so the epsilon
  // already spent stays resumable, and a postmortem.
  Status Cancel(int64_t attempts_done) {
    std::string detail = "training cancelled by the stall watchdog after " +
                         std::to_string(attempts_done) + " attempt(s)";
    recorder_.Record(FlightEventKind::kWatchdogCancel, attempts_done, detail);
    if (options_.checkpoint_every > 0) {
      const Status flushed = WriteCheckpoint(attempts_done);
      detail += flushed.ok()
                    ? "; final checkpoint flushed to " + last_checkpoint_path_
                    : "; final checkpoint flush failed: " + flushed.message();
    }
    FlushPostmortem("watchdog_cancel", detail, attempts_done);
    return Status::Cancelled(detail);
  }

  // The epilogue every run shares, finished, cancelled or failed.
  void Finish(const Status& status, int64_t attempts_done) {
    if (state_.reporting) MirrorIoStats();
    const bool cancelled = status.code() == StatusCode::kCancelled;
    Publish(status.ok() ? "finished" : (cancelled ? "cancelled" : "failed"),
            attempts_done);
  }

 private:
  Status WriteCheckpoint(int64_t next_attempt) {
    const std::string path =
        options_.checkpoint_dir + "/" + CheckpointFileName(next_attempt);
    const Status saved =
        SaveTrainingCheckpoint(state_.ToCheckpoint(next_attempt), path);
    if (saved.ok()) {
      last_checkpoint_path_ = path;
      recorder_.Record(FlightEventKind::kCheckpointWrite, next_attempt, path);
    }
    return saved;
  }

  // Dumps the flight recorder as an atomic postmortem file next to the
  // checkpoints (no checkpoints = nowhere agreed to write). Best-effort:
  // a failed dump never changes the run's fate, and the write fires its
  // own "obs.postmortem" fault site so chaos schedules armed at other
  // sites draw the same random sequence with or without postmortems.
  void FlushPostmortem(const char* reason, const std::string& detail,
                       int64_t attempts_done) {
    if (options_.checkpoint_every == 0 || !recorder_.enabled()) return;
    PostmortemInfo info;
    info.reason = reason;
    info.detail = detail;
    info.step = state_.accepted_updates;
    info.attempt = attempts_done;
    info.epsilon = state_.accountant.Snapshot(Delta(options_.delta)).epsilon;
    info.degraded = degraded_;
    const std::string path =
        options_.checkpoint_dir + "/" + PostmortemFileName(attempts_done);
    (void)AtomicWriteFile(path, PostmortemJson(info, recorder_.Snapshot()),
                          RetryPolicy{}, "obs.postmortem");
  }

  // Sticky once any observability sink loses data: training continues,
  // the obs.degraded gauge flips, /healthz reports "degraded".
  void NoteDegraded(const char* what, int64_t attempts_done) {
    if (std::exchange(degraded_, true)) return;
    MetricsRegistry::Global().SetGauge("obs.degraded", 1.0);
    recorder_.Record(FlightEventKind::kDegraded, state_.accepted_updates, what);
    std::fprintf(stderr,
                 "trainer: %s is failing; continuing degraded (training "
                 "unaffected, telemetry may be incomplete)\n",
                 what);
    FlushPostmortem("degraded", what, attempts_done);
  }

  // Mirrors the dependency-free base/io tallies into the metrics registry
  // as this run's io.retries / io.giveups deltas.
  void MirrorIoStats() {
    MirrorIoTally(io_stats_.retries, mirrored_retries_, "retries",
                  FlightEventKind::kIoRetry);
    MirrorIoTally(io_stats_.giveups, mirrored_giveups_, "giveups",
                  FlightEventKind::kIoGiveup);
  }

  // Adds the tally's growth since the last call to the io.<what> counter.
  void MirrorIoTally(const std::atomic<int64_t>& tally, int64_t& mirrored,
                     const char* what, FlightEventKind kind) {
    const int64_t now = tally.load(std::memory_order_relaxed);
    if (now <= mirrored) return;
    const int64_t added = now - mirrored;
    MetricsRegistry::Global().IncrementCounter(std::string("io.") + what,
                                               added);
    recorder_.Record(kind, state_.accepted_updates,
                     "+" + std::to_string(added) + " io " + what);
    mirrored = now;
  }

  const RunState& state_;
  const TrainerOptions& options_ = state_.options;
  FlightRecorder& recorder_ = FlightRecorder::Global();
  IoStats& io_stats_ = IoStats::Global();
  int64_t mirrored_retries_ = io_stats_.retries.load(std::memory_order_relaxed);
  int64_t mirrored_giveups_ = io_stats_.giveups.load(std::memory_order_relaxed);
  std::string last_checkpoint_path_;
  bool degraded_ = false;
  int64_t missed_checkpoints_ = 0;  // consecutive write failures skipped
  bool warned_missed_ = false;
  bool warned_prune_ = false;
  const std::unique_ptr<StallWatchdog> watchdog_ =
      options_.stall_timeout_ms > 0
          ? std::make_unique<StallWatchdog>(options_.stall_timeout_ms)
          : nullptr;
  EpsilonBurnTracker burn_tracker_;
  std::optional<StepRecord> last_record_;
};

// telemetry: the loss history, the flight-recorder milestone and, when an
// observer or a publisher is attached, the step record.
void Report(RunState& s, RunSupervisor& supervisor,
            const PrivateBatchGradient& grads, int64_t step, int64_t attempt,
            bool accepted) {
  const TraceSpan span("step.telemetry");
  const int64_t every = s.options.record_loss_every;
  if (accepted && grads.batch_size > 0 && every > 0 &&
      (step % every == 0 || step == s.options.iterations - 1)) {
    s.result.loss_iterations.push_back(step);
    s.result.loss_history.push_back(grads.mean_loss);
  }
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Record(FlightEventKind::kStepMilestone, attempt + 1,
                  "accepted=" + std::to_string(s.accepted_updates));
  if (s.reporting) {
    supervisor.Observe(BuildStepRecord(s, grads, step, attempt, accepted),
                       attempt + 1);
  }
}

}  // namespace

Status ValidateTrainerOptions(const TrainerOptions& options,
                              int64_t train_size) {
  const std::string batch = std::to_string(options.batch_size);
  const std::string iterations = std::to_string(options.iterations);
  const std::string dataset = std::to_string(train_size);
  // The first violated rule is reported.
  const std::pair<bool, std::string> rules[] = {
      {train_size <= 0, "training dataset is empty"},
      {options.batch_size <= 0, "batch_size must be positive, got " + batch},
      {options.batch_size > train_size,
       "batch_size " + batch + " exceeds dataset size " + dataset},
      {options.iterations <= 0,
       "iterations must be positive, got " + iterations},
      {!(options.learning_rate > 0.0), "learning_rate must be positive"},
      {!(options.clip_threshold > 0.0), "clip_threshold must be positive"},
      {!IsKnownClipper(options.clipper),
       "unknown clipper \"" + options.clipper +
           "\" (expected \"flat\", \"AUTO-S\", or \"PSAC\")"},
      {options.clip_mode != "materialize" && options.clip_mode != "ghost",
       "unknown clip_mode \"" + options.clip_mode +
           "\" (expected \"materialize\" or \"ghost\")"},
      {!(options.noise_multiplier >= 0.0), "noise_multiplier must be >= 0"},
      {!(options.beta > 0.0 && options.beta <= 1.0), "beta must be in (0, 1]"},
      {!(options.delta > 0.0 && options.delta < 1.0),
       "delta must be in (0, 1)"},
      {options.selective_update && options.sur_eval_examples <= 0,
       "sur_eval_examples must be positive when selective_update is on"},
      {!(options.sur_tolerance >= 0.0), "sur_tolerance must be >= 0"},
      // SUR's accept test is a release the accountant does not charge.
      {options.selective_update && options.epsilon_budget > 0.0,
       "selective_update cannot run with an epsilon_budget: its accept "
       "test is not charged to the accountant"},
      // An importance lot is drawn with replacement, by weights computed
      // from private losses: the accountant's Poisson lot at q = B/N does
      // not describe it.
      {options.importance_sampling && options.epsilon_budget > 0.0,
       "importance_sampling cannot run with an epsilon_budget: its lots "
       "are drawn with replacement by private-loss weights, which the "
       "accountant does not charge"},
      // A Poisson lot ignores the importance weights.
      {options.importance_sampling && options.poisson_sampling,
       "importance_sampling and poisson_sampling are mutually exclusive"},
      {options.checkpoint_every < 0, "checkpoint_every must be >= 0"},
      {options.checkpoint_every > 0 && options.checkpoint_dir.empty(),
       "checkpoint_every > 0 requires checkpoint_dir"},
      {options.checkpoint_keep < 1, "checkpoint_keep must be >= 1"},
      {options.max_missed_checkpoints < 0,
       "max_missed_checkpoints must be >= 0"},
      {options.stall_timeout_ms < 0, "stall_timeout_ms must be >= 0"},
  };
  for (const auto& [violated, message] : rules) {
    if (violated) return Status::InvalidArgument(message);
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

StatusOr<TrainingResult> DpTrainer::Run() {
  const Status valid = ValidateTrainerOptions(options_, train_->size());
  if (!valid.ok()) return valid;

  RunState state(options_, *model_, *train_);
  int64_t attempt = 0;
  std::string resumed_from;
  if (!options_.resume_from.empty()) {
    StatusOr<FoundCheckpoint> found =
        FindLatestGoodCheckpoint(options_.resume_from);
    if (!found.ok()) return found.status();
    resumed_from = found.value().path;
    const Status restored = state.Restore(found.value().checkpoint);
    if (!restored.ok()) {
      return Status(restored.code(), "cannot resume from " + resumed_from +
                                         ": " + restored.message());
    }
    attempt = found.value().checkpoint.next_attempt;
    FlightRecorder::Global().Record(FlightEventKind::kResume, attempt,
                                    "resumed from " + resumed_from);
  }
  RunSupervisor supervisor(state, resumed_from);
  supervisor.Publish("training", attempt);

  const int64_t max_attempts =
      (options_.selective_update ? kSurAttemptsPerIteration : 1) *
      options_.iterations;
  Status status;
  while (attempt < max_attempts &&
         state.accepted_updates < options_.iterations) {
    if (supervisor.Stalled()) {
      status = supervisor.Cancel(attempt);
      break;
    }
    const TraceSpan step_span("step");
    const int64_t step = state.accepted_updates;
    const std::vector<int64_t> batch = SampleLot(state);
    const PrivateBatchGradient grads = ComputeGradients(state, batch);
    const Tensor noisy = Release(state, grads);
    const bool accepted = Update(state, noisy);
    Report(state, supervisor, grads, step, attempt, accepted);
    ++attempt;
    status = supervisor.Checkpoint(attempt);
    if (!status.ok()) break;
    supervisor.Publish("training", attempt);
    FaultInjector::Global().Fire("trainer.step");
  }

  TrainingResult& result = state.result;
  if (status.ok()) {
    result.final_train_loss =
        EvaluateMeanLoss(*model_, *train_, /*max_examples=*/0);
    if (test_ != nullptr && test_->size() > 0) {
      result.test_accuracy = EvaluateAccuracy(*model_, *test_);
    }
    if (state.accounted) {
      result.epsilon = state.accountant.GetEpsilon(Delta(options_.delta));
    }
    result.sur_accepted = state.selective.accepted();
    result.sur_rejected = state.selective.rejected();
    result.final_beta = state.adapt_beta ? state.current_beta : options_.beta;
  }
  supervisor.Finish(status, attempt);
  if (!status.ok()) return status;
  return std::move(result);
}

}  // namespace geodp
