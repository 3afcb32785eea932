#include "support/autograd.h"

#include <cmath>

#include "base/check.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace autograd {

Var Graph::Input(Tensor value) {
  return Emplace(std::move(value), nullptr, /*needs_grad=*/false);
}

Var Graph::Parameter(Tensor value) {
  return Emplace(std::move(value), nullptr, /*needs_grad=*/true);
}

Var Graph::Emplace(Tensor value, BackwardFn backward, bool needs_grad) {
  GEODP_CHECK(!backward_ran_) << "tape already differentiated";
  Node node;
  node.grad = Tensor::Zeros(value.shape());
  node.value = std::move(value);
  node.backward = std::move(backward);
  node.needs_grad = needs_grad;
  nodes_.push_back(std::move(node));
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

const Tensor& Graph::value(Var v) const {
  GEODP_CHECK(v.valid() && static_cast<size_t>(v.index) < nodes_.size());
  return nodes_[static_cast<size_t>(v.index)].value;
}

const Tensor& Graph::grad(Var v) const {
  GEODP_CHECK(v.valid() && static_cast<size_t>(v.index) < nodes_.size());
  return nodes_[static_cast<size_t>(v.index)].grad;
}

Tensor& Graph::mutable_grad(Var v) {
  GEODP_CHECK(v.valid() && static_cast<size_t>(v.index) < nodes_.size());
  return nodes_[static_cast<size_t>(v.index)].grad;
}

bool Graph::needs_grad(Var v) const {
  GEODP_CHECK(v.valid() && static_cast<size_t>(v.index) < nodes_.size());
  return nodes_[static_cast<size_t>(v.index)].needs_grad;
}

void Graph::Backward(Var output) {
  GEODP_CHECK(!backward_ran_) << "Backward may run once per tape";
  GEODP_CHECK_EQ(value(output).numel(), 1) << "output must be scalar";
  backward_ran_ = true;
  mutable_grad(output)[0] = 1.0f;
  // Tape order is a valid topological order: every node's inputs precede
  // it, so reverse iteration propagates gradients correctly.
  for (size_t i = nodes_.size(); i-- > 0;) {
    Node& node = nodes_[i];
    if (node.backward && node.needs_grad) node.backward(*this);
  }
}

namespace {

// An op's output needs a gradient iff any input does.
bool AnyNeedsGrad(const Graph& g, std::initializer_list<Var> vars) {
  for (Var v : vars) {
    if (g.needs_grad(v)) return true;
  }
  return false;
}

// The Var the next Emplace call will return; lets backward closures refer
// to their own output.
Var NextVar(const Graph& g) { return Var{static_cast<int32_t>(g.size())}; }

}  // namespace

Var Add(Graph& g, Var a, Var b) {
  GEODP_CHECK(SameShape(g.value(a), g.value(b)));
  const bool needs = AnyNeedsGrad(g, {a, b});
  const Var out = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, b, out](Graph& graph) {
      const Tensor& gy = graph.grad(out);
      if (graph.needs_grad(a)) graph.mutable_grad(a).AddInPlace(gy);
      if (graph.needs_grad(b)) graph.mutable_grad(b).AddInPlace(gy);
    };
  }
  return g.Emplace(geodp::Add(g.value(a), g.value(b)), std::move(backward),
                   needs);
}

Var Sub(Graph& g, Var a, Var b) {
  GEODP_CHECK(SameShape(g.value(a), g.value(b)));
  const bool needs = AnyNeedsGrad(g, {a, b});
  const Var out = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, b, out](Graph& graph) {
      const Tensor& gy = graph.grad(out);
      if (graph.needs_grad(a)) graph.mutable_grad(a).AddInPlace(gy);
      if (graph.needs_grad(b)) graph.mutable_grad(b).SubInPlace(gy);
    };
  }
  return g.Emplace(geodp::Sub(g.value(a), g.value(b)), std::move(backward),
                   needs);
}

Var Mul(Graph& g, Var a, Var b) {
  GEODP_CHECK(SameShape(g.value(a), g.value(b)));
  const bool needs = AnyNeedsGrad(g, {a, b});
  const Var out = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, b, out](Graph& graph) {
      const Tensor& gy = graph.grad(out);
      if (graph.needs_grad(a)) {
        graph.mutable_grad(a).AddInPlace(geodp::Mul(gy, graph.value(b)));
      }
      if (graph.needs_grad(b)) {
        graph.mutable_grad(b).AddInPlace(geodp::Mul(gy, graph.value(a)));
      }
    };
  }
  return g.Emplace(geodp::Mul(g.value(a), g.value(b)), std::move(backward),
                   needs);
}

Var Scale(Graph& g, Var a, float factor) {
  const bool needs = g.needs_grad(a);
  const Var out = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, out, factor](Graph& graph) {
      graph.mutable_grad(a).AxpyInPlace(factor, graph.grad(out));
    };
  }
  return g.Emplace(geodp::Scale(g.value(a), factor), std::move(backward),
                   needs);
}

Var Matmul(Graph& g, Var a, Var b) {
  const bool needs = AnyNeedsGrad(g, {a, b});
  const Var out = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, b, out](Graph& graph) {
      const Tensor& gy = graph.grad(out);
      if (graph.needs_grad(a)) {
        // dA = dY @ B^T
        graph.mutable_grad(a).AddInPlace(
            geodp::Matmul(gy, Transpose(graph.value(b))));
      }
      if (graph.needs_grad(b)) {
        // dB = A^T @ dY
        graph.mutable_grad(b).AddInPlace(
            geodp::Matmul(Transpose(graph.value(a)), gy));
      }
    };
  }
  return g.Emplace(geodp::Matmul(g.value(a), g.value(b)),
                   std::move(backward), needs);
}

Var MatmulNT(Graph& g, Var a, Var b) {
  const bool needs = AnyNeedsGrad(g, {a, b});
  const Var out = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, b, out](Graph& graph) {
      const Tensor& gy = graph.grad(out);
      if (graph.needs_grad(a)) {
        // Y = A B^T  =>  dA = dY @ B
        graph.mutable_grad(a).AddInPlace(geodp::Matmul(gy, graph.value(b)));
      }
      if (graph.needs_grad(b)) {
        // dB = dY^T @ A
        graph.mutable_grad(b).AddInPlace(
            geodp::Matmul(Transpose(gy), graph.value(a)));
      }
    };
  }
  return g.Emplace(geodp::Matmul(g.value(a), Transpose(g.value(b))),
                   std::move(backward), needs);
}

Var AddRowBias(Graph& g, Var matrix, Var bias) {
  const Tensor& m = g.value(matrix);
  const Tensor& v = g.value(bias);
  GEODP_CHECK_EQ(m.ndim(), 2);
  GEODP_CHECK_EQ(v.ndim(), 1);
  GEODP_CHECK_EQ(m.dim(1), v.dim(0));
  Tensor out = m;
  const int64_t rows = m.dim(0), cols = m.dim(1);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) out[r * cols + c] += v[c];
  }
  const bool needs = AnyNeedsGrad(g, {matrix, bias});
  const Var result = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [matrix, bias, result, rows, cols](Graph& graph) {
      const Tensor& gy = graph.grad(result);
      if (graph.needs_grad(matrix)) {
        graph.mutable_grad(matrix).AddInPlace(gy);
      }
      if (graph.needs_grad(bias)) {
        Tensor& gb = graph.mutable_grad(bias);
        for (int64_t r = 0; r < rows; ++r) {
          for (int64_t c = 0; c < cols; ++c) gb[c] += gy[r * cols + c];
        }
      }
    };
  }
  return g.Emplace(std::move(out), std::move(backward), needs);
}

Var Relu(Graph& g, Var a) {
  Tensor out = g.value(a);
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] < 0.0f) out[i] = 0.0f;
  }
  const bool needs = g.needs_grad(a);
  const Var result = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, result](Graph& graph) {
      const Tensor& gy = graph.grad(result);
      const Tensor& x = graph.value(a);
      Tensor& gx = graph.mutable_grad(a);
      for (int64_t i = 0; i < gy.numel(); ++i) {
        if (x[i] > 0.0f) gx[i] += gy[i];
      }
    };
  }
  return g.Emplace(std::move(out), std::move(backward), needs);
}

Var Sum(Graph& g, Var a) {
  Tensor out = Tensor::Vector({static_cast<float>(geodp::Sum(g.value(a)))});
  const bool needs = g.needs_grad(a);
  const Var result = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [a, result](Graph& graph) {
      const float gy = graph.grad(result)[0];
      Tensor& gx = graph.mutable_grad(a);
      for (int64_t i = 0; i < gx.numel(); ++i) gx[i] += gy;
    };
  }
  return g.Emplace(std::move(out), std::move(backward), needs);
}

Var MeanOp(Graph& g, Var a) {
  const int64_t n = g.value(a).numel();
  Var total = Sum(g, a);
  return Scale(g, total, 1.0f / static_cast<float>(n));
}

Var SoftmaxCrossEntropyOp(Graph& g, Var logits,
                          const std::vector<int64_t>& labels) {
  const Tensor& z = g.value(logits);
  GEODP_CHECK_EQ(z.ndim(), 2);
  const int64_t batch = z.dim(0), classes = z.dim(1);
  GEODP_CHECK_EQ(static_cast<int64_t>(labels.size()), batch);

  // Forward: stable softmax + mean NLL; cache probabilities for backward.
  Tensor probabilities({batch, classes});
  double total_loss = 0.0;
  for (int64_t b = 0; b < batch; ++b) {
    float row_max = z[b * classes];
    for (int64_t k = 1; k < classes; ++k) {
      row_max = std::max(row_max, z[b * classes + k]);
    }
    double denom = 0.0;
    for (int64_t k = 0; k < classes; ++k) {
      const double e =
          std::exp(static_cast<double>(z[b * classes + k]) -
                   static_cast<double>(row_max));
      probabilities[b * classes + k] = static_cast<float>(e);
      denom += e;
    }
    for (int64_t k = 0; k < classes; ++k) {
      probabilities[b * classes + k] = static_cast<float>(
          static_cast<double>(probabilities[b * classes + k]) / denom);
    }
    total_loss -= std::log(std::max(
        static_cast<double>(
            probabilities[b * classes + labels[static_cast<size_t>(b)]]),
        1e-12));
  }
  Tensor out =
      Tensor::Vector({static_cast<float>(total_loss / static_cast<double>(batch))});

  const bool needs = g.needs_grad(logits);
  const Var result = NextVar(g);
  Graph::BackwardFn backward;
  if (needs) {
    backward = [logits, result, probabilities, labels, batch,
                classes](Graph& graph) {
      const float gy = graph.grad(result)[0];
      Tensor& gx = graph.mutable_grad(logits);
      const float inv_batch = 1.0f / static_cast<float>(batch);
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t k = 0; k < classes; ++k) {
          float p = probabilities[b * classes + k];
          if (k == labels[static_cast<size_t>(b)]) p -= 1.0f;
          gx[b * classes + k] += gy * p * inv_batch;
        }
      }
    };
  }
  return g.Emplace(std::move(out), std::move(backward), needs);
}

}  // namespace autograd
}  // namespace geodp
