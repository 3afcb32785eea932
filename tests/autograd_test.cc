// Tests for the autograd tape: finite-difference checks on every op and
// cross-validation of the hand-written nn:: backward passes against the
// mechanically differentiated graph.

#include <cmath>

#include <gtest/gtest.h>

#include "autograd/graph.h"
#include "base/rng.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/parameter.h"
#include "nn/sequential.h"
#include "nn/activations.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace autograd {
namespace {

// Finite-difference check of d(build(g, param))/d(param) at `point`.
// `build` must construct the graph from a parameter Var and return a
// scalar output Var.
template <typename BuildFn>
void CheckParameterGradient(const Tensor& point, BuildFn build,
                            double tolerance = 2e-2, double eps = 1e-3) {
  Graph g;
  Var p = g.Parameter(point);
  Var out = build(g, p);
  g.Backward(out);
  const Tensor analytic = g.grad(p);

  for (int64_t i = 0; i < point.numel(); ++i) {
    Tensor up = point, down = point;
    up[i] += static_cast<float>(eps);
    down[i] -= static_cast<float>(eps);
    Graph gu, gd;
    const double fu =
        gu.value(build(gu, gu.Parameter(up)))[0];
    const double fd =
        gd.value(build(gd, gd.Parameter(down)))[0];
    const double numeric = (fu - fd) / (2.0 * eps);
    EXPECT_NEAR(numeric, analytic[i], tolerance) << "coordinate " << i;
  }
}

TEST(AutogradTest, SumOfParameterIsOnes) {
  Graph g;
  Var p = g.Parameter(Tensor::Vector({1, 2, 3}));
  g.Backward(Sum(g, p));
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(g.grad(p)[i], 1.0f);
}

TEST(AutogradTest, AddSubGradients) {
  Rng rng(1);
  const Tensor x = Tensor::Randn({4}, rng);
  CheckParameterGradient(x, [](Graph& g, Var p) {
    Var c = g.Input(Tensor::Vector({0.5f, -1.0f, 2.0f, 0.0f}));
    return Sum(g, Sub(g, Add(g, p, c), p));  // == Sum(c): zero gradient
  });
  CheckParameterGradient(x, [](Graph& g, Var p) {
    Var c = g.Input(Tensor::Vector({0.5f, -1.0f, 2.0f, 0.0f}));
    return Sum(g, Add(g, p, c));
  });
}

TEST(AutogradTest, MulGradient) {
  Rng rng(2);
  const Tensor x = Tensor::Randn({5}, rng);
  CheckParameterGradient(x, [](Graph& g, Var p) {
    return Sum(g, Mul(g, p, p));  // d/dx sum(x^2) = 2x
  });
}

TEST(AutogradTest, ScaleAndMeanGradient) {
  Rng rng(3);
  const Tensor x = Tensor::Randn({6}, rng);
  CheckParameterGradient(x, [](Graph& g, Var p) {
    return MeanOp(g, Scale(g, p, 3.0f));
  });
}

TEST(AutogradTest, MatmulGradient) {
  Rng rng(4);
  const Tensor w = Tensor::Randn({3, 4}, rng);
  const Tensor x_value = Tensor::Randn({2, 3}, rng);
  CheckParameterGradient(w, [&](Graph& g, Var p) {
    Var x = g.Input(x_value);
    return Sum(g, Matmul(g, x, p));
  });
}

TEST(AutogradTest, MatmulNTMatchesMatmulTranspose) {
  Rng rng(5);
  Graph g;
  Var a = g.Parameter(Tensor::Randn({2, 3}, rng));
  Var b = g.Parameter(Tensor::Randn({4, 3}, rng));
  Var nt = MatmulNT(g, a, b);
  EXPECT_EQ(g.value(nt).dim(0), 2);
  EXPECT_EQ(g.value(nt).dim(1), 4);
  const Tensor direct = Matmul(g.value(a), Transpose(g.value(b)));
  EXPECT_TRUE(AllClose(g.value(nt), direct));
}

TEST(AutogradTest, MatmulNTGradient) {
  Rng rng(6);
  const Tensor w = Tensor::Randn({4, 3}, rng);
  const Tensor x_value = Tensor::Randn({2, 3}, rng);
  CheckParameterGradient(w, [&](Graph& g, Var p) {
    Var x = g.Input(x_value);
    return Sum(g, MatmulNT(g, x, p));
  });
}

TEST(AutogradTest, AddRowBiasGradient) {
  Rng rng(7);
  const Tensor bias = Tensor::Randn({3}, rng);
  const Tensor m_value = Tensor::Randn({4, 3}, rng);
  CheckParameterGradient(bias, [&](Graph& g, Var p) {
    Var m = g.Input(m_value);
    return Sum(g, AddRowBias(g, m, p));
  });
}

TEST(AutogradTest, ActivationGradients) {
  Rng rng(8);
  Tensor x = Tensor::Randn({5}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.3f;  // keep off the ReLU kink
  }
  CheckParameterGradient(x, [](Graph& g, Var p) {
    return Sum(g, Relu(g, p));
  });
}

TEST(AutogradTest, SoftmaxCrossEntropyGradient) {
  Rng rng(9);
  const Tensor logits = Tensor::Randn({3, 4}, rng);
  const std::vector<int64_t> labels = {0, 2, 3};
  CheckParameterGradient(
      logits,
      [&](Graph& g, Var p) { return SoftmaxCrossEntropyOp(g, p, labels); },
      /*tolerance=*/5e-3);
}

TEST(AutogradTest, ReusedVariableAccumulatesGradient) {
  // f(x) = sum(x*x) + sum(x): grad = 2x + 1.
  Graph g;
  const Tensor x = Tensor::Vector({1.0f, -2.0f});
  Var p = g.Parameter(x);
  Var out = Add(g, Sum(g, Mul(g, p, p)), Sum(g, p));
  g.Backward(out);
  EXPECT_NEAR(g.grad(p)[0], 3.0f, 1e-5);
  EXPECT_NEAR(g.grad(p)[1], -3.0f, 1e-5);
}

TEST(AutogradTest, InputsGetNoGradient) {
  Graph g;
  Var x = g.Input(Tensor::Vector({5.0f}));
  Var p = g.Parameter(Tensor::Vector({2.0f}));
  g.Backward(Sum(g, Mul(g, x, p)));
  EXPECT_EQ(g.grad(x)[0], 0.0f);  // untouched
  EXPECT_NEAR(g.grad(p)[0], 5.0f, 1e-6);
}

// --- Cross-validation against the hand-written nn:: layers ---

TEST(AutogradCrossCheckTest, LinearLayerMatchesGraph) {
  Rng rng(10);
  Linear layer(5, 3, rng);
  const Tensor x = Tensor::Randn({4, 5}, rng);
  const std::vector<int64_t> labels = {0, 1, 2, 0};

  // Hand-written path.
  SoftmaxCrossEntropy loss;
  const auto params = layer.Parameters();
  ZeroGradients(params);
  const double manual_loss = loss.Forward(layer.Forward(x), labels);
  layer.Backward(loss.Backward());
  const Tensor manual_dw = params[0]->grad;
  const Tensor manual_db = params[1]->grad;

  // Autograd path with identical weights.
  Graph g;
  Var gx = g.Input(x);
  Var gw = g.Parameter(params[0]->value);
  Var gb = g.Parameter(params[1]->value);
  Var logits = AddRowBias(g, MatmulNT(g, gx, gw), gb);
  Var out = SoftmaxCrossEntropyOp(g, logits, labels);
  const double graph_loss = g.value(out)[0];
  g.Backward(out);

  EXPECT_NEAR(manual_loss, graph_loss, 1e-5);
  EXPECT_LT(MaxAbsDiff(manual_dw, g.grad(gw)), 1e-5);
  EXPECT_LT(MaxAbsDiff(manual_db, g.grad(gb)), 1e-5);
}

TEST(AutogradCrossCheckTest, TwoLayerMlpMatchesGraph) {
  Rng rng(11);
  Sequential net;
  net.Emplace<Linear>(6, 5, rng);
  net.Emplace<ReLU>();
  net.Emplace<Linear>(5, 3, rng);
  const Tensor x = Tensor::Randn({3, 6}, rng);
  const std::vector<int64_t> labels = {2, 0, 1};

  SoftmaxCrossEntropy loss;
  const auto params = net.Parameters();
  ZeroGradients(params);
  const double manual_loss = loss.Forward(net.Forward(x), labels);
  net.Backward(loss.Backward());
  const Tensor manual_grads = FlattenGradients(params);

  Graph g;
  Var gx = g.Input(x);
  Var w1 = g.Parameter(params[0]->value);
  Var b1 = g.Parameter(params[1]->value);
  Var w2 = g.Parameter(params[2]->value);
  Var b2 = g.Parameter(params[3]->value);
  Var hidden = Relu(g, AddRowBias(g, MatmulNT(g, gx, w1), b1));
  Var logits = AddRowBias(g, MatmulNT(g, hidden, w2), b2);
  Var out = SoftmaxCrossEntropyOp(g, logits, labels);
  const double graph_loss = g.value(out)[0];
  g.Backward(out);

  EXPECT_NEAR(manual_loss, graph_loss, 1e-5);
  std::vector<Tensor> graph_grads = {g.grad(w1), g.grad(b1), g.grad(w2),
                                     g.grad(b2)};
  int64_t offset = 0;
  for (size_t i = 0; i < graph_grads.size(); ++i) {
    for (int64_t j = 0; j < graph_grads[i].numel(); ++j) {
      EXPECT_NEAR(manual_grads[offset + j], graph_grads[i][j], 1e-5)
          << "param " << i << " index " << j;
    }
    offset += graph_grads[i].numel();
  }
}

}  // namespace
}  // namespace autograd
}  // namespace geodp
