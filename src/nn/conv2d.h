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
  // Both paths form sample b's weight gradient in the unfolded basis,
  // G_b = gy_b cols_b^T ([OC, IC*K*K]). Materialize adds it to the
  // parameter gradient. Ghost clipping takes its norm and discards it,
  // then GhostAccumulate forms it again under the clip weight.
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  void GhostAccumulate(const std::vector<double>& weights) override;
  std::vector<Parameter*> Parameters() override;

  std::string name() const override { return "Conv2d"; }

  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }
  int64_t kernel_size() const { return kernel_size_; }
  int64_t padding() const { return padding_; }

 private:
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
  // sample's for the backward), its transpose [OH*OW, IC*K*K] (the
  // materialized backward's), its weight gradient G_b [OC, IC*K*K] and its
  // input gradient's columns [IC*K*K, OH*OW].
  Tensor columns_;
  Tensor columns_t_;
  Tensor product_;
  Tensor grad_columns_;
  // Per-call scratch of Backward and GhostAccumulate: W^T [IC*K*K, OC]
  // and the batch's weight gradient [OC, IC*K*K] before it joins the
  // parameter's.
  Tensor weight_t_;
  Tensor weight_grad_matrix_;
  Tensor cached_grad_output_;  // set by a ghost Backward for GhostAccumulate
  // Per-sample unfolded input, stored transposed ([B, OH*OW, IC*K*K]) so
  // both ghost passes feed sample b's gy_b [OC, OH*OW] straight into the
  // matmul kernel against cols_b^T without re-running im2col. Activation
  // footprint (O(batch * receptive fields)), not per-sample gradients.
  Tensor cached_columns_t_;
};

}  // namespace geodp

#endif  // GEODP_NN_CONV2D_H_
