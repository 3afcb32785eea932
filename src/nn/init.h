// Parameter initialization schemes.

#ifndef GEODP_NN_INIT_H_
#define GEODP_NN_INIT_H_

#include <cstdint>

#include "base/rng.h"
#include "tensor/tensor.h"

namespace geodp {

/// Kaiming/He uniform init: Uniform(-bound, bound) with
/// bound = sqrt(6 / fan_in). Suitable for layers followed by ReLU.
Tensor KaimingUniform(std::vector<int64_t> shape, int64_t fan_in, Rng& rng);

}  // namespace geodp

#endif  // GEODP_NN_INIT_H_
