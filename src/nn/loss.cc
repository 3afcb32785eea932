#include "nn/loss.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

double SoftmaxCrossEntropy::Forward(const Tensor& logits,
                                    const std::vector<int64_t>& labels) {
  GEODP_CHECK_EQ(logits.ndim(), 2);
  const int64_t batch = logits.dim(0), classes = logits.dim(1);
  GEODP_CHECK_EQ(static_cast<int64_t>(labels.size()), batch);

  probabilities_ = Tensor({batch, classes});
  labels_ = labels;
  sample_losses_.clear();
  sample_losses_.reserve(static_cast<size_t>(batch));
  double total_loss = 0.0;
  for (int64_t b = 0; b < batch; ++b) {
    GEODP_CHECK(labels[static_cast<size_t>(b)] >= 0 &&
                labels[static_cast<size_t>(b)] < classes);
    // Stabilize with the row max before exponentiating.
    float row_max = logits[b * classes];
    for (int64_t k = 1; k < classes; ++k) {
      row_max = std::max(row_max, logits[b * classes + k]);
    }
    double denom = 0.0;
    for (int64_t k = 0; k < classes; ++k) {
      const double e = std::exp(static_cast<double>(logits[b * classes + k]) -
                                static_cast<double>(row_max));
      probabilities_[b * classes + k] = static_cast<float>(e);
      denom += e;
    }
    for (int64_t k = 0; k < classes; ++k) {
      probabilities_[b * classes + k] = static_cast<float>(
          static_cast<double>(probabilities_[b * classes + k]) / denom);
    }
    const double p_true = std::max(
        static_cast<double>(
            probabilities_[b * classes + labels[static_cast<size_t>(b)]]),
        1e-12);
    sample_losses_.push_back(-std::log(p_true));
    total_loss -= std::log(p_true);
  }
  return total_loss / static_cast<double>(batch);
}

Tensor SoftmaxCrossEntropy::Backward() const {
  GEODP_CHECK(!probabilities_.empty()) << "Backward before Forward";
  const int64_t batch = probabilities_.dim(0);
  const int64_t classes = probabilities_.dim(1);
  Tensor grad = probabilities_;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (int64_t b = 0; b < batch; ++b) {
    grad[b * classes + labels_[static_cast<size_t>(b)]] -= 1.0f;
    for (int64_t k = 0; k < classes; ++k) grad[b * classes + k] *= inv_batch;
  }
  return grad;
}

Tensor SoftmaxCrossEntropy::BackwardSum() const {
  GEODP_CHECK(!probabilities_.empty()) << "BackwardSum before Forward";
  const int64_t batch = probabilities_.dim(0);
  const int64_t classes = probabilities_.dim(1);
  Tensor grad = probabilities_;
  for (int64_t b = 0; b < batch; ++b) {
    grad[b * classes + labels_[static_cast<size_t>(b)]] -= 1.0f;
  }
  return grad;
}

}  // namespace geodp
