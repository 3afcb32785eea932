// Container chaining layers, plus the Model alias the rest of the library
// trains against.

#ifndef GEODP_NN_SEQUENTIAL_H_
#define GEODP_NN_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"

namespace geodp {

/// Runs layers in order on Forward and in reverse on Backward.
class Sequential : public Layer {
 public:
  Sequential() = default;
  explicit Sequential(std::string name) : name_(std::move(name)) {}

  /// Appends a layer; returns *this for chaining.
  Sequential& Add(std::unique_ptr<Layer> layer);

  /// Constructs and appends a layer in place.
  template <typename LayerT, typename... Args>
  Sequential& Emplace(Args&&... args) {
    return Add(std::make_unique<LayerT>(std::forward<Args>(args)...));
  }

  Tensor Forward(Tensor input) override;
  /// Runs the layers in reverse. With input_grad false (the backward walk
  /// of a training step) the walk ends at the first layer that owns
  /// parameters, which is not asked for its input gradient, so no layer
  /// computes a gradient nothing reads. Layers before it are not run.
  Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) override;
  void GhostAccumulate(const std::vector<double>& weights) override;
  std::vector<Parameter*> Parameters() override;
  std::string name() const override { return name_.empty() ? "Sequential"
                                                           : name_; }

  size_t size() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_.at(i); }

 private:
  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
  // Layers before the first one that owns parameters, counted by Add so
  // that Backward does not build a Parameters() vector per call.
  size_t leading_parameter_free_ = 0;
};

}  // namespace geodp

#endif  // GEODP_NN_SEQUENTIAL_H_
