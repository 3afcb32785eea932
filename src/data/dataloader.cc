#include "data/dataloader.h"

#include <algorithm>
#include <numeric>

#include "base/check.h"

namespace geodp {

BatchSampler::BatchSampler(int64_t dataset_size, int64_t batch_size,
                           uint64_t seed, bool shuffle)
    : dataset_size_(std::max<int64_t>(dataset_size, 0)),
      batch_size_(std::max<int64_t>(batch_size, 0)),
      shuffle_(shuffle),
      rng_(seed) {
  order_.resize(static_cast<size_t>(dataset_size_));
  std::iota(order_.begin(), order_.end(), 0);
  StartEpoch();
}

void BatchSampler::StartEpoch() {
  if (shuffle_) rng_.Shuffle(order_);
  cursor_ = 0;
}

std::vector<int64_t> BatchSampler::NextBatch() {
  // Zero-size dataset or batch: nothing to sample. Returning an empty
  // batch (instead of CHECK-aborting) lets the trainer report a
  // configuration error through Status.
  const int64_t effective = std::min(batch_size_, dataset_size_);
  if (effective == 0) return {};
  // Reshuffle only at batch boundaries: crossing an epoch edge mid-batch
  // would reshuffle the permutation while part of it is already in the
  // batch, so an example could be drawn twice. A duplicated example
  // contributes its clipped gradient twice, breaking the sensitivity-C
  // bound the noise is calibrated to. If fewer than batch_size indices
  // remain, the epoch tail is dropped (batches stay exactly batch_size,
  // matching the sensitivity analysis; the tail rejoins the next shuffle).
  if (cursor_ + effective > dataset_size_) StartEpoch();
  const auto first = order_.begin() + static_cast<int64_t>(cursor_);
  std::vector<int64_t> batch(first, first + effective);
  cursor_ += effective;
  return batch;
}

BatchSamplerState BatchSampler::ExportState() const {
  BatchSamplerState state;
  state.rng = rng_.ExportState();
  state.order = order_;
  state.cursor = cursor_;
  return state;
}

Status BatchSampler::ImportState(const BatchSamplerState& state) {
  if (state.order.size() != order_.size() || state.cursor < 0 ||
      state.cursor > static_cast<int64_t>(state.order.size())) {
    return Status::FailedPrecondition(
        "batch-sampler state does not fit this dataset");
  }
  rng_.ImportState(state.rng);
  order_ = state.order;
  cursor_ = state.cursor;
  return Status::Ok();
}

PoissonSampler::PoissonSampler(int64_t dataset_size, double sampling_rate,
                               uint64_t seed)
    : dataset_size_(std::max<int64_t>(dataset_size, 0)),
      sampling_rate_(std::clamp(sampling_rate, 0.0, 1.0)),
      rng_(seed) {}

std::vector<int64_t> PoissonSampler::NextBatch() {
  std::vector<int64_t> batch;
  for (int64_t i = 0; i < dataset_size_; ++i) {
    if (rng_.Uniform() < sampling_rate_) batch.push_back(i);
  }
  return batch;
}

RngState PoissonSampler::ExportState() const { return rng_.ExportState(); }

void PoissonSampler::ImportState(const RngState& state) {
  rng_.ImportState(state);
}

}  // namespace geodp
