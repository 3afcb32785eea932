#include "nn/activations.h"

#include "base/check.h"

namespace geodp {

// ReLU selects instead of branching: on sign-random inputs a branch per
// element mispredicts about half the time. NaN compares false, so it maps
// like a negative input.
Tensor ReLU::Forward(const Tensor& input) {
  if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
  Tensor output(input.shape());
  const float* x = input.data();
  float* y = output.data();
  float* mask = mask_.data();
  for (int64_t i = 0; i < input.numel(); ++i) {
    const bool on = x[i] > 0.0f;
    y[i] = on ? x[i] : 0.0f;
    mask[i] = on ? 1.0f : 0.0f;
  }
  return output;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  GEODP_CHECK(SameShape(grad_output, mask_));
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) grad_input[i] *= mask_[i];
  return grad_input;
}

}  // namespace geodp
