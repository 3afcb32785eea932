// Residual block: out = ReLU(F(x) + x) with F = Conv -> ReLU -> Conv.
// Channel counts and spatial extents are preserved (3x3 kernels, padding 1),
// matching the paper's "3 residual blocks, each containing 2 convolutional
// layers and 1 ReLU" description of its ResNet.

#ifndef GEODP_NN_RESIDUAL_H_
#define GEODP_NN_RESIDUAL_H_

#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/module.h"

namespace geodp {

/// Identity-skip residual block over [B, C, H, W] activations.
class ResidualBlock : public Layer {
 public:
  ResidualBlock(int64_t channels, Rng& rng);

  Tensor Forward(Tensor input) override;
  // The block's parameters are those of conv1_ and conv2_, so its ghost
  // norms are theirs added, and its accumulation theirs in turn.
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  void GhostAccumulate(const std::vector<double>& weights) override;
  std::vector<Parameter*> Parameters() override;
  std::string name() const override { return "ResidualBlock"; }

 private:
  Conv2d conv1_;
  ReLU relu1_;
  Conv2d conv2_;
  ReLU relu_out_;
};

}  // namespace geodp

#endif  // GEODP_NN_RESIDUAL_H_
