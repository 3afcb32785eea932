#include "nn/activations.h"

#include "base/check.h"

namespace geodp {

// ReLU selects instead of branching: on sign-random inputs a branch per
// element mispredicts about half the time. NaN compares false, so it maps
// like a negative input. The element count is read once: a byte store
// may alias anything, so a count read per iteration would be reloaded
// after every mask store and keep the loop from vectorizing.
Tensor ReLU::Forward(Tensor input) {
  const int64_t n = input.numel();
  input_shape_ = input.shape();
  mask_.resize(static_cast<size_t>(n));
  float* y = input.data();
  uint8_t* on = mask_.data();
  for (int64_t i = 0; i < n; ++i) {
    const bool positive = y[i] > 0.0f;
    y[i] = positive ? y[i] : 0.0f;
    on[i] = positive;
  }
  return input;
}

// The gradient is multiplied by 1 or 0 rather than selected, so a masked
// element keeps the product's bits: -0 for a negative g, NaN for an
// infinite or NaN one.
Tensor ReLU::Backward(Tensor grad_output,
                      std::vector<double>* /*ghost_norm_sq*/,
                      bool /*input_grad*/) {
  GEODP_CHECK(grad_output.shape() == input_shape_);
  const int64_t n = grad_output.numel();
  float* g = grad_output.data();
  const uint8_t* on = mask_.data();
  for (int64_t i = 0; i < n; ++i) g[i] *= static_cast<float>(on[i]);
  return grad_output;
}

}  // namespace geodp
