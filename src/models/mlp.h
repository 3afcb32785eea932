// Multi-layer perceptron factory: a configurable stack of Linear + ReLU.

#ifndef GEODP_MODELS_MLP_H_
#define GEODP_MODELS_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "nn/sequential.h"

namespace geodp {

/// MLP architecture description.
struct MlpConfig {
  int64_t input_dim = 196;
  std::vector<int64_t> hidden_dims = {64};
  int64_t num_classes = 10;
};

/// Builds Flatten -> [Linear -> ReLU]* -> Linear.
std::unique_ptr<Sequential> MakeMlp(const MlpConfig& config, Rng& rng);

}  // namespace geodp

#endif  // GEODP_MODELS_MLP_H_
