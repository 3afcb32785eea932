#include "nn/flatten.h"

#include <utility>

#include "base/check.h"

namespace geodp {

// Both directions reshape the tensor they own: no data is copied.
Tensor Flatten::Forward(Tensor input) {
  GEODP_CHECK_GE(input.ndim(), 2);
  input_shape_ = input.shape();
  const int64_t batch = input.dim(0);
  return std::move(input).Reshape({batch, -1});
}

Tensor Flatten::Backward(Tensor grad_output,
                         std::vector<double>* /*ghost_norm_sq*/,
                         bool /*input_grad*/) {
  return std::move(grad_output).Reshape(input_shape_);
}

}  // namespace geodp
