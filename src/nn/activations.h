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
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  std::string name() const override { return "ReLU"; }

 private:
  std::vector<int64_t> input_shape_;
  std::vector<uint8_t> mask_;  // 1 where input > 0
};

}  // namespace geodp

#endif  // GEODP_NN_ACTIVATIONS_H_
