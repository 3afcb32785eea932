// Tape-based reverse-mode automatic differentiation over Tensor.
//
// This is an independent gradient substrate: the production layers in
// src/nn implement hand-written backward passes (fast, allocation-light);
// this graph rebuilds the same computations from primitive ops and
// differentiates them mechanically. The test suite cross-checks the two,
// so every analytic backward pass is verified against an implementation
// that cannot share its bugs.
//
// Usage:
//   Graph g;
//   Var x = g.Input(batch);                 // constant w.r.t. grad
//   Var w = g.Parameter(weights);           // gradient is tracked
//   Var logits = AddRowBias(MatmulNT(x, w), b);
//   Var loss = SoftmaxCrossEntropy(logits, labels);
//   g.Backward(loss);
//   Tensor dw = g.grad(w);

#ifndef GEODP_TESTS_SUPPORT_AUTOGRAD_H_
#define GEODP_TESTS_SUPPORT_AUTOGRAD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {
namespace autograd {

class Graph;

/// Lightweight handle to a node in a Graph tape.
struct Var {
  int32_t index = -1;

  bool valid() const { return index >= 0; }
};

/// Owns the tape: node values, gradients and backward closures.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Leaf whose gradient is not needed (e.g. input data).
  Var Input(Tensor value);

  /// Leaf whose gradient is accumulated (trainable parameter).
  Var Parameter(Tensor value);

  /// Node value / accumulated gradient.
  const Tensor& value(Var v) const;
  const Tensor& grad(Var v) const;

  /// Runs reverse-mode differentiation from `output`, which must be a
  /// scalar (numel 1). Gradients of all parameters (and intermediates)
  /// are populated; call once per tape.
  void Backward(Var output);

  /// Number of nodes recorded.
  size_t size() const { return nodes_.size(); }

  // --- Internal API used by the op free functions. ---
  using BackwardFn = std::function<void(Graph&)>;
  Var Emplace(Tensor value, BackwardFn backward, bool needs_grad);
  Tensor& mutable_grad(Var v);
  bool needs_grad(Var v) const;

 private:
  struct Node {
    Tensor value;
    Tensor grad;
    BackwardFn backward;  // null for leaves
    bool needs_grad = false;
  };
  std::vector<Node> nodes_;
  bool backward_ran_ = false;
};

// ---- Primitive ops (each records one tape node) ----

/// Elementwise a + b (same shape).
Var Add(Graph& g, Var a, Var b);

/// Elementwise a - b (same shape).
Var Sub(Graph& g, Var a, Var b);

/// Elementwise a * b (same shape).
Var Mul(Graph& g, Var a, Var b);

/// a * constant.
Var Scale(Graph& g, Var a, float factor);

/// Matrix product [m,k] x [k,n] -> [m,n].
Var Matmul(Graph& g, Var a, Var b);

/// a @ b^T for a [m,k], b [n,k] -> [m,n] (the Linear-layer pattern).
Var MatmulNT(Graph& g, Var a, Var b);

/// Adds a row vector bias [n] to every row of a [m,n] matrix.
Var AddRowBias(Graph& g, Var matrix, Var bias);

/// Elementwise max(x, 0).
Var Relu(Graph& g, Var a);

/// Sum of all elements -> scalar [1].
Var Sum(Graph& g, Var a);

/// Mean of all elements -> scalar [1].
Var MeanOp(Graph& g, Var a);

/// Mean softmax cross-entropy of logits [B,K] against labels -> scalar.
Var SoftmaxCrossEntropyOp(Graph& g, Var logits,
                          const std::vector<int64_t>& labels);

}  // namespace autograd
}  // namespace geodp

#endif  // GEODP_TESTS_SUPPORT_AUTOGRAD_H_
