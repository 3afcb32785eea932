#include "nn/sequential.h"

#include <utility>

#include "base/check.h"

namespace geodp {

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  GEODP_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

// Each layer owns the activation it is given, which nothing reads
// afterwards.
Tensor Sequential::Forward(Tensor input) {
  for (auto& layer : layers_) input = layer->Forward(std::move(input));
  return input;
}

Tensor Sequential::Backward(
    Tensor grad_output,
    std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
    bool input_grad) {
  size_t first = 0;
  while (!input_grad && first < layers_.size() &&
         layers_[first]->Parameters().empty()) {
    ++first;
  }
  for (size_t i = layers_.size(); i-- > first;) {
    grad_output = layers_[i]->Backward(std::move(grad_output),
                                       ghost_norm_sq,  // geodp: per-sample
                                       input_grad || i > first);
  }
  return grad_output;  // geodp: per-sample
}

void Sequential::GhostAccumulate(const std::vector<double>& weights) {
  for (auto& layer : layers_) layer->GhostAccumulate(weights);
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace geodp
