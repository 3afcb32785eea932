#include "nn/init.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

Tensor KaimingUniform(std::vector<int64_t> shape, int64_t fan_in, Rng& rng) {
  GEODP_CHECK_GT(fan_in, 0);
  const float bound =
      static_cast<float>(std::sqrt(6.0 / static_cast<double>(fan_in)));
  return Tensor::RandUniform(std::move(shape), rng, -bound, bound);
}

}  // namespace geodp
