// Flattens image activations into dense features.

#ifndef GEODP_NN_FLATTEN_H_
#define GEODP_NN_FLATTEN_H_

#include <string>
#include <vector>

#include "nn/module.h"

namespace geodp {

/// [B, d1, d2, ...] -> [B, d1*d2*...].
class Flatten : public Layer {
 public:
  Flatten() = default;

  Tensor Forward(Tensor input) override;
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<int64_t> input_shape_;
};

}  // namespace geodp

#endif  // GEODP_NN_FLATTEN_H_
