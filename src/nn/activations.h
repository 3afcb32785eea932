// The elementwise activation layer every model uses: ReLU.

#ifndef GEODP_NN_ACTIVATIONS_H_
#define GEODP_NN_ACTIVATIONS_H_

#include <string>

#include "nn/module.h"

namespace geodp {

/// Rectified linear unit, any input shape.
class ReLU : public Layer {
 public:
  ReLU() = default;

  Tensor Forward(const Tensor& input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  Tensor mask_;  // 1 where input > 0
};

}  // namespace geodp

#endif  // GEODP_NN_ACTIVATIONS_H_
