#include "nn/activations.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

// The activations select instead of branching: on sign-random inputs a
// branch per element mispredicts about half the time. NaN compares false,
// so it maps like a negative input.
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

Tensor Tanh::Forward(const Tensor& input) {
  output_ = input;
  for (int64_t i = 0; i < output_.numel(); ++i) {
    output_[i] = std::tanh(output_[i]);
  }
  return output_;
}

Tensor Tanh::Backward(const Tensor& grad_output) {
  GEODP_CHECK(SameShape(grad_output, output_));
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) {
    grad_input[i] *= 1.0f - output_[i] * output_[i];
  }
  return grad_input;
}

Tensor Sigmoid::Forward(const Tensor& input) {
  output_ = input;
  for (int64_t i = 0; i < output_.numel(); ++i) {
    output_[i] = static_cast<float>(
        1.0 / (1.0 + std::exp(-static_cast<double>(output_[i]))));
  }
  return output_;
}

Tensor Sigmoid::Backward(const Tensor& grad_output) {
  GEODP_CHECK(SameShape(grad_output, output_));
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) {
    grad_input[i] *= output_[i] * (1.0f - output_[i]);
  }
  return grad_input;
}

LeakyReLU::LeakyReLU(float slope) : slope_(slope) {
  GEODP_CHECK_GE(slope_, 0.0f);
  GEODP_CHECK_LT(slope_, 1.0f);
}

Tensor LeakyReLU::Forward(const Tensor& input) {
  if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
  Tensor output(input.shape());
  const float* x = input.data();
  float* y = output.data();
  float* mask = mask_.data();
  for (int64_t i = 0; i < input.numel(); ++i) {
    const bool on = x[i] > 0.0f;
    y[i] = on ? x[i] : x[i] * slope_;
    mask[i] = on ? 1.0f : slope_;
  }
  return output;
}

Tensor LeakyReLU::Backward(const Tensor& grad_output) {
  GEODP_CHECK(SameShape(grad_output, mask_));
  Tensor grad_input = grad_output;
  for (int64_t i = 0; i < grad_input.numel(); ++i) grad_input[i] *= mask_[i];
  return grad_input;
}

}  // namespace geodp
