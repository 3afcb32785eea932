#include "optim/techniques.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"

namespace geodp {

ImportanceSampler::ImportanceSampler(int64_t dataset_size, int64_t batch_size,
                                     uint64_t seed, double ema)
    : dataset_size_(dataset_size),
      batch_size_(batch_size),
      ema_(ema),
      rng_(seed),
      weights_(static_cast<size_t>(dataset_size), 1.0),
      seen_(static_cast<size_t>(dataset_size), false) {
  GEODP_CHECK_GT(dataset_size_, 0);
  GEODP_CHECK_GT(batch_size_, 0);
  GEODP_CHECK(ema_ >= 0.0 && ema_ < 1.0);
}

std::vector<int64_t> ImportanceSampler::NextBatch() {
  double total = 0.0;
  for (double w : weights_) total += w;
  GEODP_CHECK_GT(total, 0.0);
  std::vector<int64_t> batch;
  batch.reserve(static_cast<size_t>(batch_size_));
  for (int64_t b = 0; b < batch_size_; ++b) {
    double target = rng_.Uniform() * total;
    int64_t chosen = dataset_size_ - 1;
    for (int64_t i = 0; i < dataset_size_; ++i) {
      target -= weights_[static_cast<size_t>(i)];
      if (target <= 0.0) {
        chosen = i;
        break;
      }
    }
    batch.push_back(chosen);
  }
  return batch;
}

void ImportanceSampler::UpdateLoss(int64_t index, double loss) {
  GEODP_CHECK(index >= 0 && index < dataset_size_);
  // A NaN/Inf loss (sample skipped by the non-finite guard) would poison
  // the EMA and make the weight table unusable; ignore it.
  if (!std::isfinite(loss)) return;
  // Floor keeps every example reachable.
  const double value = std::max(loss, 1e-3);
  double& w = weights_[static_cast<size_t>(index)];
  if (seen_[static_cast<size_t>(index)]) {
    w = ema_ * w + (1.0 - ema_) * value;
  } else {
    w = value;
    seen_[static_cast<size_t>(index)] = true;
  }
}

double ImportanceSampler::weight(int64_t index) const {
  GEODP_CHECK(index >= 0 && index < dataset_size_);
  return weights_[static_cast<size_t>(index)];
}

ImportanceSamplerState ImportanceSampler::ExportState() const {
  ImportanceSamplerState state;
  state.rng = rng_.ExportState();
  state.weights = weights_;
  state.seen.assign(seen_.begin(), seen_.end());
  return state;
}

Status ImportanceSampler::ImportState(const ImportanceSamplerState& state) {
  if (state.weights.size() != weights_.size() ||
      state.seen.size() != seen_.size()) {
    return Status::FailedPrecondition(
        "importance-sampler state does not fit this dataset");
  }
  rng_.ImportState(state.rng);
  weights_ = state.weights;
  seen_.assign(state.seen.begin(), state.seen.end());
  return Status::Ok();
}

SelectiveUpdater::SelectiveUpdater(double tolerance) : tolerance_(tolerance) {
  GEODP_CHECK_GE(tolerance_, 0.0);
}

Status SelectiveUpdater::RestoreCounts(int64_t accepted, int64_t rejected) {
  if (accepted < 0 || rejected < 0) {
    return Status::FailedPrecondition("SUR counters are inconsistent");
  }
  accepted_ = accepted;
  rejected_ = rejected;
  return Status::Ok();
}

bool SelectiveUpdater::ShouldAccept(double loss_before, double loss_after) {
  const bool accept = loss_after <= loss_before + tolerance_;
  if (accept) {
    ++accepted_;
  } else {
    ++rejected_;
  }
  return accept;
}

}  // namespace geodp
