// Layer abstraction: every building block implements an explicit forward
// and backward pass, caching whatever it needs in Forward. Batch-first
// layouts throughout: dense activations are [B, features], image
// activations are [B, C, H, W].

#ifndef GEODP_NN_MODULE_H_
#define GEODP_NN_MODULE_H_

#include <string>
#include <vector>

#include "base/check.h"
#include "nn/parameter.h"
#include "tensor/tensor.h"

namespace geodp {

/// Base class for all network layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch; caches state for Backward.
  /// The layer owns `input`: it may keep it for Backward or write its
  /// output over it, so a caller that reads its input afterwards passes a
  /// copy.
  virtual Tensor Forward(Tensor input) = 0;

  /// Given dL/d(output), returns dL/d(input). Must be called after a
  /// matching Forward. The layer owns `grad_output`, as Forward owns its
  /// input. Both per-sample gradient paths run through this one call:
  /// - ghost_norm_sq null (materialize): accumulates the parameter
  ///   gradients.
  /// - ghost_norm_sq non-null (ghost clipping, pass 1 of 2): leaves the
  ///   parameter gradients alone, adds sample b's squared
  ///   parameter-gradient L2 norm into (*ghost_norm_sq)[b] and caches
  ///   what GhostAccumulate needs. It has batch-size entries; norms add
  ///   across the disjoint parameter sets of different layers.
  /// With input_grad false nothing reads dL/d(input), as for the first
  /// layer of a model that owns parameters: layers that own parameters
  /// skip it and return an empty tensor. The parameter gradients or norms
  /// come out bit-identical either way.
  virtual Tensor Backward(
      Tensor grad_output,
      std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
      bool input_grad) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Ghost-clipping pass 2 of 2: accumulates sum_b weights[b] * g_b into
  /// the parameter gradients, where g_b is sample b's parameter gradient
  /// implied by the last ghost Backward. `weights` has one entry per
  /// sample (a clip scale, 1.0 for raw sums, or exactly 0.0 for excluded
  /// samples — implementations must skip zero-weight samples structurally
  /// rather than multiply, so non-finite gradients cannot poison the sum
  /// via 0 * inf). Every layer that owns parameters overrides it; the
  /// default, for parameter-free layers, does nothing.
  virtual void GhostAccumulate(const std::vector<double>& weights) {
    (void)weights;
    GEODP_CHECK(Parameters().empty())
        << name() << " owns parameters but does not accumulate them";
  }

  virtual std::string name() const = 0;
};

}  // namespace geodp

#endif  // GEODP_NN_MODULE_H_
