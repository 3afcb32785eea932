// Layer abstraction: every building block implements an explicit forward
// and backward pass, caching whatever it needs in Forward. Batch-first
// layouts throughout: dense activations are [B, features], image
// activations are [B, C, H, W].

#ifndef GEODP_NN_MODULE_H_
#define GEODP_NN_MODULE_H_

#include <string>
#include <vector>

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

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be called after a matching Forward.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// True when the layer can run the ghost-clipping backward protocol
  /// below. Parameter-free layers always can (the defaults just forward
  /// to Backward); layers with parameters must override the two hooks to
  /// opt in.
  virtual bool SupportsGhostClip() { return Parameters().empty(); }

  /// Ghost-clipping pass 1 of 2: like Backward, but instead of
  /// accumulating parameter gradients it adds sample b's squared
  /// parameter-gradient L2 norm into ghost_norm_sq[b] (Goodfellow-style
  /// bookkeeping from the cached activations and this grad_output) and
  /// caches whatever GhostAccumulate needs. ghost_norm_sq must have
  /// batch-size entries. The default — correct only for parameter-free
  /// layers — is a plain Backward that leaves the norms untouched.
  virtual Tensor GhostBackward(
      const Tensor& grad_output,
      std::vector<double>& ghost_norm_sq) {  // geodp: per-sample norms out
    (void)ghost_norm_sq;  // geodp: per-sample (no parameters, no norm)
    return Backward(grad_output);
  }

  /// Ghost-clipping pass 2 of 2: accumulates sum_b weights[b] * g_b into
  /// the parameter gradients, where g_b is sample b's parameter gradient
  /// implied by the last GhostBackward. `weights` has one entry per
  /// sample (a clip scale, 1.0 for raw sums, or exactly 0.0 for excluded
  /// samples — implementations must skip zero-weight samples structurally
  /// rather than multiply, so non-finite gradients cannot poison the sum
  /// via 0 * inf). Default: no-op for parameter-free layers.
  virtual void GhostAccumulate(const std::vector<double>& weights) {
    (void)weights;
  }

  /// Backward for a layer whose dL/d(input) nothing reads, such as the
  /// first layer of a model that owns parameters: runs Backward, or
  /// GhostBackward when ghost_norm_sq is non-null, and drops the input
  /// gradient. Layers override it to skip computing that gradient; the
  /// parameter gradients or ghost norms must come out bit-identical.
  virtual void BackwardParameters(
      const Tensor& grad_output,
      std::vector<double>* ghost_norm_sq) {  // geodp: per-sample norms out
    if (ghost_norm_sq == nullptr) {  // geodp: per-sample
      (void)Backward(grad_output);
    } else {
      (void)GhostBackward(grad_output, *ghost_norm_sq);  // geodp: per-sample
    }
  }

  virtual std::string name() const = 0;
};

}  // namespace geodp

#endif  // GEODP_NN_MODULE_H_
