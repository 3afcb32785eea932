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
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  // Ghost clipping (Goodfellow factorization): per-sample
  // ||dW_b||^2 = ||dy_b||^2 * ||x_b||^2 (+ ||dy_b||^2 for the bias) from
  // the cached activations, no per-sample gradient ever materialized.
  bool SupportsGhostClip() override { return true; }
  Tensor GhostBackward(
      const Tensor& grad_output,
      std::vector<double>& ghost_norm_sq) override;  // geodp: per-sample
  void GhostAccumulate(const std::vector<double>& weights) override;
  // Skips the input gradient dx = dy W.
  void BackwardParameters(
      const Tensor& grad_output,
      std::vector<double>* ghost_norm_sq) override;  // geodp: per-sample

  std::string name() const override { return "Linear"; }

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  // Backward and GhostBackward without the input gradient.
  void AccumulateGradients(const Tensor& grad_output);
  // weight grad += grad_output^T · cached input.
  void AddWeightGradient(const Tensor& grad_output);
  void AddGhostNorms(
      const Tensor& grad_output,
      std::vector<double>& ghost_norm_sq);  // geodp: per-sample norms out

  int64_t in_features_;
  int64_t out_features_;
  bool with_bias_;
  Parameter weight_;
  Parameter bias_;
  Tensor cached_input_;
  Tensor cached_grad_output_;  // set by GhostBackward for GhostAccumulate
  // Scratch reused across calls: W^T for the forward product, and the
  // transposed output gradient and product of the weight gradient.
  Tensor weight_t_;
  Tensor grad_output_t_;
  Tensor weight_product_;
};

}  // namespace geodp

#endif  // GEODP_NN_LINEAR_H_
