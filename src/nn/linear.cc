#include "nn/linear.h"

#include <algorithm>
#include <utility>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace geodp {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias),
      weight_("weight",
              KaimingUniform({out_features, in_features}, in_features, rng)),
      bias_("bias", Tensor::Zeros({out_features})),
      weight_t_({in_features, out_features}),
      weight_product_({out_features, in_features}) {
  GEODP_CHECK_GT(in_features_, 0);
  GEODP_CHECK_GT(out_features_, 0);
}

Tensor Linear::Forward(Tensor input) {
  GEODP_CHECK_EQ(input.ndim(), 2);
  GEODP_CHECK_EQ(input.dim(1), in_features_);
  const int64_t batch = input.dim(0);
  // y[b, o] = sum_i x[b, i] * W[o, i] + bias[o]
  TransposeInto(weight_.value.data(), out_features_, in_features_,
                weight_t_.data());
  Tensor output = Matmul(input, weight_t_);
  if (with_bias_) {
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t o = 0; o < out_features_; ++o) {
        output[b * out_features_ + o] += bias_.value[o];
      }
    }
  }
  cached_input_ = std::move(input);
  return output;
}

Tensor Linear::Backward(
    Tensor grad_output,
    std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
    bool input_grad) {
  GEODP_CHECK_EQ(grad_output.ndim(), 2);
  GEODP_CHECK_EQ(grad_output.dim(0), cached_input_.dim(0));
  GEODP_CHECK_EQ(grad_output.dim(1), out_features_);
  // dx[b, i] = sum_o dy[b, o] * W[o, i]
  Tensor grad_input =
      input_grad ? Matmul(grad_output, weight_.value) : Tensor();
  if (ghost_norm_sq == nullptr) {  // geodp: per-sample
    AccumulateGradients(grad_output);
  } else {
    AddGhostNorms(grad_output, *ghost_norm_sq);  // geodp: per-sample
    cached_grad_output_ = std::move(grad_output);
  }
  return grad_input;
}

void Linear::AccumulateGradients(const Tensor& grad_output) {
  // dW[o, i] += sum_b dy[b, o] * x[b, i], formed in scratch and then
  // added, so the product rounds on its own before joining the gradient.
  const int64_t batch = grad_output.dim(0);
  if (grad_output_t_.numel() != batch * out_features_) {
    grad_output_t_ = Tensor({out_features_, batch});
  }
  TransposeInto(grad_output.data(), batch, out_features_,
                grad_output_t_.data());
  MatmulInto(grad_output_t_.data(), cached_input_.data(),
             weight_product_.data(), out_features_, batch, in_features_);
  simd::Add(weight_.grad.data(), weight_product_.data(),
            weight_product_.numel());
  if (with_bias_) {
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t o = 0; o < out_features_; ++o) {
        bias_.grad[o] += grad_output[b * out_features_ + o];
      }
    }
  }
}

void Linear::AddGhostNorms(
    const Tensor& grad_output,
    std::vector<double>& ghost_norm_sq) {  // geodp: per-sample norms out
  const int64_t batch = grad_output.dim(0);
  GEODP_CHECK_EQ(ghost_norm_sq.size(),  // geodp: per-sample
                 static_cast<size_t>(batch));
  // Goodfellow factorization: sample b's weight gradient is the outer
  // product dy_b x_b^T, so ||dW_b||^2 = ||dy_b||^2 * ||x_b||^2; the bias
  // gradient is dy_b itself and adds one more ||dy_b||^2.
  for (int64_t b = 0; b < batch; ++b) {
    const double gy_sq = simd::SumSquares(
        grad_output.data() + b * out_features_, out_features_);
    const double x_sq = simd::SumSquares(
        cached_input_.data() + b * in_features_, in_features_);
    // geodp: per-sample squared norm, consumed by the clip boundary
    ghost_norm_sq[static_cast<size_t>(b)] +=
        gy_sq * (with_bias_ ? x_sq + 1.0 : x_sq);
  }
}

void Linear::GhostAccumulate(const std::vector<double>& weights) {
  GEODP_CHECK(!cached_grad_output_.empty())
      << "GhostAccumulate before a ghost Backward";
  const int64_t batch = cached_grad_output_.dim(0);
  GEODP_CHECK_EQ(static_cast<int64_t>(weights.size()), batch);
  // Scale each sample's backprop row by its weight, then one matmul
  // accumulates the weighted sum of outer products. Zero-weight samples
  // are zero-filled, never multiplied: a non-finite excluded row must
  // contribute exactly nothing, and 0 * inf would be NaN.
  Tensor scaled(cached_grad_output_.shape());
  for (int64_t b = 0; b < batch; ++b) {
    float* row = scaled.data() + b * out_features_;
    if (weights[static_cast<size_t>(b)] == 0.0) {
      std::fill(row, row + out_features_, 0.0f);
    } else {
      simd::ClipScaleAssign(
          row, cached_grad_output_.data() + b * out_features_,
          static_cast<float>(weights[static_cast<size_t>(b)]),
          out_features_);
    }
  }
  AccumulateGradients(scaled);
}

std::vector<Parameter*> Linear::Parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace geodp
