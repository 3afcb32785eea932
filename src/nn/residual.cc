#include "nn/residual.h"

#include <utility>

#include "base/check.h"
#include "tensor/tensor_ops.h"

namespace geodp {

ResidualBlock::ResidualBlock(int64_t channels, Rng& rng)
    : conv1_(channels, channels, /*kernel_size=*/3, rng, /*padding=*/1),
      conv2_(channels, channels, /*kernel_size=*/3, rng, /*padding=*/1) {}

// The branch gets a copy of the input, which the skip connection reads.
Tensor ResidualBlock::Forward(Tensor input) {
  Tensor branch =
      conv2_.Forward(relu1_.Forward(conv1_.Forward(Tensor(input))));
  GEODP_CHECK(SameShape(branch, input));
  branch.AddInPlace(input);
  return relu_out_.Forward(std::move(branch));
}

// grad_sum flows both through the conv branch, which gets a copy, and the
// identity skip.
Tensor ResidualBlock::Backward(
    Tensor grad_output,
    std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
    bool input_grad) {
  const Tensor grad_sum =
      relu_out_.Backward(std::move(grad_output), nullptr, true);
  // geodp: per-sample (norms out; the input gradient is backprop)
  Tensor grad = conv2_.Backward(Tensor(grad_sum), ghost_norm_sq, true);
  grad = relu1_.Backward(std::move(grad), nullptr, true);  // geodp: per-sample
  // geodp: per-sample
  grad = conv1_.Backward(std::move(grad), ghost_norm_sq, input_grad);
  if (input_grad) grad.AddInPlace(grad_sum);
  return grad;  // geodp: per-sample
}

void ResidualBlock::GhostAccumulate(const std::vector<double>& weights) {
  conv1_.GhostAccumulate(weights);
  conv2_.GhostAccumulate(weights);
}

std::vector<Parameter*> ResidualBlock::Parameters() {
  std::vector<Parameter*> params = conv1_.Parameters();
  for (Parameter* p : conv2_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace geodp
