// 2-D convolution with stride 1 and symmetric zero padding.

#ifndef GEODP_NN_CONV2D_H_
#define GEODP_NN_CONV2D_H_

#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/module.h"

namespace geodp {

/// Convolution mapping [B, in_channels, H, W] ->
/// [B, out_channels, H - k + 1 + 2p, W - k + 1 + 2p] with square kernels,
/// lowered to matrix products by im2col (nn/im2col.h).
class Conv2d : public Layer {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
         Rng& rng, int64_t padding = 0, bool with_bias = true);

  Tensor Forward(Tensor input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  // Ghost clipping via the im2col unfolding: sample b's weight gradient
  // is G_b = gy_b cols_b^T ([OC, IC*K*K]) — tiny next to a whole-model
  // per-sample gradient — so its norm is taken and G_b discarded, then a
  // second weighted pass accumulates.
  bool SupportsGhostClip() override { return true; }
  Tensor GhostBackward(
      const Tensor& grad_output,
      std::vector<double>& ghost_norm_sq) override;  // geodp: per-sample
  void GhostAccumulate(const std::vector<double>& weights) override;
  // Skips each sample's W^T gy and Col2Im.
  void BackwardParameters(
      const Tensor& grad_output,
      std::vector<double>* ghost_norm_sq) override;  // geodp: per-sample

  std::string name() const override { return "Conv2d"; }

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel_size() const { return kernel_size_; }
  int64_t padding() const { return padding_; }

 private:
  // With input_grad false these return an empty tensor and skip the
  // input gradient.
  Tensor BackwardPass(const Tensor& grad_output, bool input_grad);
  Tensor GhostPass(const Tensor& grad_output,
                   std::vector<double>& ghost_norm_sq,  // geodp: per-sample
                   bool input_grad);

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t kernel_size_;
  int64_t padding_;
  bool with_bias_;
  Parameter weight_;  // [OC, IC, K, K]
  Parameter bias_;    // [OC]
  Tensor cached_input_;
  // Per-sample scratch, reused across samples and calls:
  // one sample's unfold [IC*K*K, OH*OW] (the forward's; it keeps the last
  // sample's for the backward), its transpose [OH*OW, IC*K*K], its weight
  // gradient [OC, IC*K*K] and its input gradient's columns [IC*K*K, OH*OW].
  Tensor columns_;
  Tensor columns_t_;
  Tensor product_;
  Tensor grad_columns_;
  // Per-call scratch of the backward and ghost passes: W^T
  // [IC*K*K, OC] and the batch's weight gradient [OC, IC*K*K] before it
  // joins the parameter's.
  Tensor weight_t_;
  Tensor weight_grad_matrix_;
  Tensor cached_grad_output_;  // set by GhostBackward for GhostAccumulate
  // Per-sample unfolded input, stored transposed ([B, OH*OW, IC*K*K]) so
  // both ghost passes feed sample b's gy_b [OC, OH*OW] straight into the
  // matmul kernel against cols_b^T without re-running im2col. Activation
  // footprint (O(batch * receptive fields)), not per-sample gradients.
  Tensor cached_columns_t_;
};

}  // namespace geodp

#endif  // GEODP_NN_CONV2D_H_
