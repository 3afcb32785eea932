// Loss functions. Losses are not Layers: they take logits plus labels and
// expose the gradient with respect to the logits.

#ifndef GEODP_NN_LOSS_H_
#define GEODP_NN_LOSS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// Numerically stable softmax cross-entropy over a batch.
class SoftmaxCrossEntropy {
 public:
  SoftmaxCrossEntropy() = default;

  /// Mean cross-entropy of logits [B, K] against integer labels (size B,
  /// each in [0, K)).
  double Forward(const Tensor& logits, const std::vector<int64_t>& labels);

  /// dL/dlogits for the mean loss from the last Forward: (p - onehot)/B.
  Tensor Backward() const;

  /// dL/dlogits for the SUM of per-sample losses from the last Forward:
  /// (p - onehot), no 1/B factor. Row b is then exactly the gradient of
  /// sample b's own loss — the per-sample semantics ghost clipping needs
  /// from one batched backward pass.
  Tensor BackwardSum() const;

  /// Per-sample losses -log p_true from the last Forward, batch order.
  const std::vector<double>& sample_losses() const { return sample_losses_; }

  /// Softmax probabilities from the last Forward, shape [B, K].
  const Tensor& probabilities() const { return probabilities_; }

 private:
  Tensor probabilities_;
  std::vector<int64_t> labels_;
  std::vector<double> sample_losses_;
};

}  // namespace geodp

#endif  // GEODP_NN_LOSS_H_
