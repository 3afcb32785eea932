// End-to-end private training loop: per-sample clipping, perturbation
// (none / DP / GeoDP), optional importance sampling, selective update,
// Adam post-processing, RDP privacy accounting, and crash-safe
// checkpointing with bit-identical resume (docs/fault_tolerance.md).

#ifndef GEODP_OPTIM_TRAINER_H_
#define GEODP_OPTIM_TRAINER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/perturbation.h"
#include "data/dataset.h"
#include "dp/privacy_ledger.h"
#include "dp/rdp_accountant.h"
#include "nn/sequential.h"
#include "obs/step_observer.h"
#include "optim/dp_adam.h"
#include "optim/geodp_sgd.h"

namespace geodp {

class TrainingStatusPublisher;  // obs/exposition.h

/// Everything a training run needs.
struct TrainerOptions {
  PerturbationMethod method = PerturbationMethod::kDp;
  int64_t batch_size = 64;
  int64_t iterations = 200;
  double learning_rate = 0.5;
  double clip_threshold = 0.1;  // paper fixes C = 0.1
  double noise_multiplier = 1.0;
  double beta = 0.1;                       // GeoDP bounding factor
  // Extension: adapt beta to the observed direction concentration
  // (optim/adaptive_beta.h). Heuristic — see the privacy caveat there.
  bool adaptive_beta = false;
  double adaptive_beta_floor = 1e-4;
  AngleHandling angle_handling = AngleHandling::kNone;
  std::string clipper = "flat";            // "flat" | "AUTO-S" | "PSAC"
  // How per-sample clipping is computed. "materialize" runs each example
  // individually and clips its flattened gradient (optim/dp_sgd.h);
  // "ghost" derives every sample's gradient norm from layer activations
  // and backprops without materializing per-sample gradients
  // (optim/ghost_grad.h) — O(batch + params) staging memory instead of
  // O(batch * params), numerically equivalent up to per-tier
  // floating-point tolerance. "ghost" requires every model layer to
  // support the ghost protocol (Linear/Conv2d plus parameter-free
  // layers); Run() fails with InvalidArgument otherwise.
  std::string clip_mode = "materialize";   // "materialize" | "ghost"
  // Poisson subsampling (each example included independently with rate
  // B/N) — the sampling model the RDP accountant assumes. When false, the
  // trainer uses epoch-shuffled fixed-size batches (common practice; the
  // accountant is then an approximation, as in mainstream DP-SGD
  // frameworks). With Poisson sampling the gradient sum is divided by the
  // nominal batch size B, matching Abadi et al.'s lot semantics.
  bool poisson_sampling = false;
  bool importance_sampling = false;        // IS
  bool selective_update = false;           // SUR
  double sur_tolerance = 0.03;  // accept if after <= before + tolerance
  int64_t sur_eval_examples = 256;         // validation slice for SUR
  bool use_adam = false;                   // DP-Adam post-processing
  double delta = 1e-5;                     // accounting target delta
  uint64_t seed = 1;
  int64_t record_loss_every = 10;          // 0 = never
  // Per-step telemetry sink (obs/step_observer.h). Borrowed, may be null;
  // when null the trainer skips every telemetry computation (per-sample
  // norm recording, accountant snapshots, metrics counters) so the hot
  // path pays nothing.
  StepObserver* step_observer = nullptr;
  // Live introspection channel (obs/exposition.h). Borrowed, may be null.
  // When set, the trainer publishes an immutable status snapshot once per
  // step (plus one at start and one at completion) for the HTTP server to
  // serve. Publishing never alters the training trajectory: the run's
  // JSONL bytes and final weights are bit-identical with or without it.
  TrainingStatusPublisher* status_publisher = nullptr;
  // Target epsilon budget reported to the introspection snapshot so
  // /healthz can flip once epsilon-so-far exceeds it. Reporting only —
  // the trainer never stops on it (0 = unbounded). Deliberately excluded
  // from the options fingerprint: it does not shape the trajectory.
  double epsilon_budget = 0.0;

  // -- Crash safety (ckpt/checkpoint.h) --------------------------------
  // Write a full-state checkpoint every this many attempts (0 = never; the
  // training loop then does no checkpoint work at all).
  int64_t checkpoint_every = 0;
  // Directory for checkpoint files; required when checkpoint_every > 0.
  std::string checkpoint_dir;
  // Checkpoint files retained after each write (older ones are pruned).
  // Keeping >= 2 means a corrupt newest file still leaves a fallback.
  int64_t checkpoint_keep = 2;
  // When non-empty, resume from the newest valid checkpoint in this
  // directory before training. The remaining steps replay bit-identically:
  // same batches, same noise, same telemetry bytes, same epsilon as an
  // uninterrupted run. Options must match the checkpointed run
  // (`iterations` may differ, so training can be extended).
  std::string resume_from;

  // -- Resilience (docs/fault_tolerance.md) ----------------------------
  // Epsilon spent on completed steps is unrecoverable, so aborting a run
  // over a transient I/O failure wastes privacy budget. These knobs keep
  // a run alive through bounded trouble; none of them shapes the
  // trajectory, so all are excluded from the options fingerprint.
  //
  // Consecutive checkpoint-write failures tolerated before giving up.
  // Each failure (after the write's own retries) is skipped with a
  // warning and counted in the ckpt.missed counter; a later successful
  // checkpoint clears the debt. Exceeding the bound is the only fatal
  // checkpoint path. 0 (default) keeps the historical strict behavior:
  // the first exhausted write aborts the run.
  int64_t max_missed_checkpoints = 0;
  // Stall watchdog: when > 0, a background thread flags the run once no
  // training step completes for this many milliseconds (process time).
  // The loop then cancels cooperatively at the next attempt boundary —
  // flushing a final checkpoint so the spent epsilon stays resumable —
  // and Run() returns kCancelled. 0 (default) disables the watchdog.
  int64_t stall_timeout_ms = 0;
};

/// Everything a training run reports.
struct TrainingResult {
  std::vector<int64_t> loss_iterations;  // iteration index per loss sample
  std::vector<double> loss_history;      // batch mean loss before update
  double final_train_loss = 0.0;
  double test_accuracy = -1.0;  // -1 when no test set was provided
  double epsilon = 0.0;         // RDP-accounted epsilon at options.delta
  int64_t sur_accepted = 0;
  int64_t sur_rejected = 0;
  double final_beta = 0.0;      // last beta used (varies with adaptive_beta)
  // Poisson lots that drew no examples (pure-noise steps). Their loss is
  // undefined, so they are excluded from loss_history and from the
  // adaptive-beta direction envelope.
  int64_t empty_lots = 0;
  // Per-sample gradients/losses dropped for being NaN/Inf (optim/dp_sgd.h).
  // The model parameters stay finite regardless of this count.
  int64_t nonfinite_skipped = 0;
  // Audit trail of every privacy release the run made (restored releases
  // included when resuming, so the composed guarantee covers the whole
  // training history, not just the final segment).
  PrivacyLedger ledger;
};

/// Validates a configuration against a dataset of `train_size` examples.
/// Returns a descriptive error for out-of-range values instead of letting
/// the training loop abort on them.
Status ValidateTrainerOptions(const TrainerOptions& options,
                              int64_t train_size);

/// Trains a model privately on a dataset. The model is mutated in place.
class DpTrainer {
 public:
  /// `test` may be null (accuracy is then not evaluated).
  DpTrainer(Sequential* model, const InMemoryDataset* train,
            const InMemoryDataset* test, TrainerOptions options);

  /// Runs the full loop and returns the report. Fails with a descriptive
  /// Status on invalid options, unusable checkpoint configuration, or a
  /// resume directory whose checkpoints do not match this run.
  StatusOr<TrainingResult> Run();

  const TrainerOptions& options() const { return options_; }

 private:
  Sequential* model_;
  const InMemoryDataset* train_;
  const InMemoryDataset* test_;
  TrainerOptions options_;
};

}  // namespace geodp

#endif  // GEODP_OPTIM_TRAINER_H_
