#include "nn/flatten.h"

#include "base/check.h"

namespace geodp {

Tensor Flatten::Forward(Tensor input) {
  GEODP_CHECK_GE(input.ndim(), 2);
  input_shape_ = input.shape();
  return input.Reshape({input.dim(0), -1});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  return grad_output.Reshape(input_shape_);
}

}  // namespace geodp
