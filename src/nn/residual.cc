#include "nn/residual.h"

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

Tensor ResidualBlock::Backward(const Tensor& grad_output) {
  const Tensor grad_sum = relu_out_.Backward(grad_output);
  // grad_sum flows both through the conv branch and the identity skip.
  Tensor grad_input =
      conv1_.Backward(relu1_.Backward(conv2_.Backward(grad_sum)));
  grad_input.AddInPlace(grad_sum);
  return grad_input;
}

std::vector<Parameter*> ResidualBlock::Parameters() {
  std::vector<Parameter*> params = conv1_.Parameters();
  for (Parameter* p : conv2_.Parameters()) params.push_back(p);
  return params;
}

}  // namespace geodp
