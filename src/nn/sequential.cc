#include "nn/sequential.h"

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

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(grad);
  }
  return grad;
}

void Sequential::BackwardParameters(
    const Tensor& grad_output,
    std::vector<double>* ghost_norm_sq) {  // geodp: per-sample norms out
  size_t first = 0;
  while (first < layers_.size() && layers_[first]->Parameters().empty()) {
    ++first;
  }
  if (first == layers_.size()) return;
  Tensor grad = grad_output;
  for (size_t i = layers_.size() - 1; i > first; --i) {
    Layer& layer = *layers_[i];
    if (ghost_norm_sq == nullptr) {  // geodp: per-sample
      grad = layer.Backward(grad);
    } else {
      grad = layer.GhostBackward(grad, *ghost_norm_sq);  // geodp: per-sample
    }
  }
  layers_[first]->BackwardParameters(grad,
                                     ghost_norm_sq);  // geodp: per-sample
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace geodp
