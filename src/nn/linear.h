// Fully connected layer: y = x W^T + b.

#ifndef GEODP_NN_LINEAR_H_
#define GEODP_NN_LINEAR_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/module.h"

namespace geodp {

/// Dense layer mapping [B, in_features] -> [B, out_features].
/// Weight shape [out_features, in_features]; bias shape [out_features].
class Linear : public Layer {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool with_bias = true);

  Tensor Forward(Tensor input) override;
  // Ghost clipping uses the Goodfellow factorization: per-sample
  // ||dW_b||^2 = ||dy_b||^2 * ||x_b||^2 (+ ||dy_b||^2 for the bias) from
  // the cached activations, no per-sample gradient ever materialized.
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  void GhostAccumulate(const std::vector<double>& weights) override;
  std::vector<Parameter*> Parameters() override;

  std::string name() const override { return "Linear"; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // weight grad += grad_output^T · cached input; bias grad += the
  // column sums of grad_output.
  void AccumulateGradients(const Tensor& grad_output);
  void AddGhostNorms(
      const Tensor& grad_output,
      std::vector<double>& ghost_norm_sq);  // geodp: per-sample norms out

  int64_t in_features_;
  int64_t out_features_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  Tensor cached_grad_output_;  // set by a ghost Backward for GhostAccumulate
  // Scratch reused across calls: W^T for the forward product, the
  // transposed output gradient and product of the weight gradient, and
  // GhostAccumulate's weighted output gradient.
  Tensor weight_t_;
  Tensor grad_output_t_;
  Tensor weight_product_;
  Tensor weighted_grad_output_;
};

}  // namespace geodp

#endif  // GEODP_NN_LINEAR_H_
