// Optimization techniques the paper composes with both DP and GeoDP
// (Tables II and III): importance sampling (after DPIS, Wei et al. CCS'22)
// and selective update-and-release (after DPSUR, Fu et al. VLDB'24). Both
// are faithful-in-spirit reimplementations at the scale of this repo; see
// DESIGN.md.

#ifndef GEODP_OPTIM_TECHNIQUES_H_
#define GEODP_OPTIM_TECHNIQUES_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

namespace geodp {

/// Serializable snapshot of an ImportanceSampler: generator state plus the
/// per-example weight table.
struct ImportanceSamplerState {
  RngState rng;
  std::vector<double> weights;
  std::vector<bool> seen;
};

/// Importance sampling: examples are drawn with probability proportional to
/// an exponential moving average of their recent loss, so hard examples are
/// visited more often. Unseen examples carry the current mean weight.
class ImportanceSampler {
 public:
  ImportanceSampler(int64_t dataset_size, int64_t batch_size, uint64_t seed,
                    double ema = 0.7);

  /// Draws `batch_size` indices with replacement, weight-proportional.
  std::vector<int64_t> NextBatch();

  /// Feeds back the observed loss of an example. Non-finite losses (a
  /// sample that produced a NaN/Inf loss is skipped by the trainer) are
  /// ignored so they cannot poison the weight table.
  void UpdateLoss(int64_t index, double loss);

  /// Current sampling weight of an example (exposed for tests).
  double weight(int64_t index) const;

  /// Checkpoint support: snapshot / restore the full sampler state. A
  /// state that does not fit this dataset fails with FailedPrecondition.
  ImportanceSamplerState ExportState() const;
  Status ImportState(const ImportanceSamplerState& state);

 private:
  int64_t dataset_size_;
  int64_t batch_size_;
  double ema_;
  Rng rng_;
  std::vector<double> weights_;
  std::vector<bool> seen_;
};

/// Selective update-and-release: a noisy update is accepted only if it does
/// not worsen the (noisily estimated) objective beyond a tolerance;
/// otherwise the model reverts to the previous parameters.
class SelectiveUpdater {
 public:
  explicit SelectiveUpdater(double tolerance = 0.0);

  /// Decision for one step; records acceptance statistics.
  bool ShouldAccept(double loss_before, double loss_after);

  int64_t accepted() const { return accepted_; }
  int64_t rejected() const { return rejected_; }

  /// Checkpoint support: restores the acceptance counters. A negative
  /// count fails with FailedPrecondition.
  Status RestoreCounts(int64_t accepted, int64_t rejected);

 private:
  double tolerance_;
  int64_t accepted_ = 0;
  int64_t rejected_ = 0;
};

}  // namespace geodp

#endif  // GEODP_OPTIM_TECHNIQUES_H_
