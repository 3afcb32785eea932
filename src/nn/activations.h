// The elementwise activation layer every model uses: ReLU.

#ifndef GEODP_NN_ACTIVATIONS_H_
#define GEODP_NN_ACTIVATIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

namespace geodp {

/// Rectified linear unit, any input shape.
class ReLU : public Layer {
 public:
  ReLU() = default;

  // Selects in place: the output is written over the input.
  Tensor Forward(Tensor input) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string name() const override { return "ReLU"; }

 private:
  std::vector<int64_t> input_shape_;
  std::vector<uint8_t> mask_;  // 1 where input > 0
};

}  // namespace geodp

#endif  // GEODP_NN_ACTIVATIONS_H_
