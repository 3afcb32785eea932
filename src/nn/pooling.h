// Spatial pooling layers: 2x2-style max pooling and global average pooling.

#ifndef GEODP_NN_POOLING_H_
#define GEODP_NN_POOLING_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace geodp {

/// Non-overlapping max pooling with square windows; input extents must be
/// divisible by the window size. [B, C, H, W] -> [B, C, H/k, W/k].
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(int64_t window);

  Tensor Forward(Tensor input) override;
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  std::string name() const override { return "MaxPool2d"; }

 private:
  int64_t window_;
  std::vector<int64_t> argmax_;       // flat input index of each output max
  std::vector<int64_t> input_shape_;  // for grad_input reconstruction
};

/// Global average pooling: [B, C, H, W] -> [B, C].
class GlobalAvgPool : public Layer {
 public:
  GlobalAvgPool() = default;

  Tensor Forward(Tensor input) override;
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  std::vector<int64_t> input_shape_;
};

}  // namespace geodp

#endif  // GEODP_NN_POOLING_H_
