// Batch index samplers: epoch-shuffled fixed-size batches and Poisson
// subsampling (the sampling model assumed by the RDP accountant). Both
// samplers expose their complete state for crash-safe checkpointing: a
// restored sampler continues the exact index sequence it would have
// produced uninterrupted.

#ifndef GEODP_DATA_DATALOADER_H_
#define GEODP_DATA_DATALOADER_H_

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/status.h"

namespace geodp {

/// Serializable snapshot of a BatchSampler: generator state plus the
/// current epoch permutation and position within it.
struct BatchSamplerState {
  RngState rng;
  std::vector<int64_t> order;
  int64_t cursor = 0;
};

/// Cycles through a shuffled permutation of [0, dataset_size), reshuffling
/// at each epoch boundary; batches have exactly `batch_size` indices and
/// never contain duplicates (an epoch tail shorter than batch_size is
/// dropped and rejoins the next shuffle — reshuffling mid-batch could draw
/// an example twice, violating the sensitivity-C bound of DP-SGD).
/// A zero-size dataset (or zero batch size) yields empty batches instead
/// of aborting, so callers can surface a configuration error.
class BatchSampler {
 public:
  BatchSampler(int64_t dataset_size, int64_t batch_size, uint64_t seed,
               bool shuffle = true);

  /// Next batch of indices; reshuffles at batch boundaries across epochs.
  /// Empty when the dataset is empty; at most dataset_size indices when
  /// batch_size exceeds the dataset.
  std::vector<int64_t> NextBatch();

  int64_t batch_size() const { return batch_size_; }

  /// Checkpoint support: snapshot / restore the full sampler state. A
  /// state that does not fit this dataset fails with FailedPrecondition.
  BatchSamplerState ExportState() const;
  Status ImportState(const BatchSamplerState& state);

 private:
  void StartEpoch();

  int64_t dataset_size_;
  int64_t batch_size_;
  bool shuffle_;
  Rng rng_;
  std::vector<int64_t> order_;
  int64_t cursor_ = 0;
};

/// Poisson subsampling: each example is included independently with
/// probability sampling_rate. Batches have random size (possibly zero).
/// The rate is clamped to [0, 1]; a zero-size dataset yields empty
/// batches.
class PoissonSampler {
 public:
  PoissonSampler(int64_t dataset_size, double sampling_rate, uint64_t seed);

  std::vector<int64_t> NextBatch();

  double sampling_rate() const { return sampling_rate_; }

  /// Checkpoint support: the only mutable state is the generator.
  RngState ExportState() const;
  void ImportState(const RngState& state);

 private:
  int64_t dataset_size_;
  double sampling_rate_;
  Rng rng_;
};

}  // namespace geodp

#endif  // GEODP_DATA_DATALOADER_H_
