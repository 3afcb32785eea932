#include "nn/conv2d.h"

#include <utility>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "nn/im2col.h"
#include "nn/init.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

// One row of an output gradient summed in double: sample b's bias
// gradient for one channel.
double RowSum(const float* row, int64_t n) {
  double sum = 0.0;
  for (int64_t i = 0; i < n; ++i) sum += static_cast<double>(row[i]);
  return sum;
}

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t kernel_size,
               Rng& rng, int64_t padding, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      padding_(padding),
      with_bias_(with_bias),
      weight_("weight",
              KaimingUniform({out_channels, in_channels, kernel_size,
                              kernel_size},
                             in_channels * kernel_size * kernel_size, rng)),
      bias_("bias", Tensor::Zeros({out_channels})),
      weight_t_({in_channels * kernel_size * kernel_size, out_channels}),
      weight_grad_matrix_(
          {out_channels, in_channels * kernel_size * kernel_size}) {
  GEODP_CHECK_GT(in_channels_, 0);
  GEODP_CHECK_GT(out_channels_, 0);
  GEODP_CHECK_GT(kernel_size_, 0);
  GEODP_CHECK_GE(padding_, 0);
}

Tensor Conv2d::Forward(Tensor input) {
  GEODP_CHECK_EQ(input.ndim(), 4);
  GEODP_CHECK_EQ(input.dim(1), in_channels_);
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = in_h + 2 * padding_ - kernel_size_ + 1;
  const int64_t out_w = in_w + 2 * padding_ - kernel_size_ + 1;
  GEODP_CHECK_GT(out_h, 0);
  GEODP_CHECK_GT(out_w, 0);

  const int64_t kk = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t spatial = out_h * out_w;
  const int64_t image_size = in_channels_ * in_h * in_w;
  if (columns_.numel() != kk * spatial) columns_ = Tensor({kk, spatial});
  // Sample b's [OC, OH*OW] output block is the product W · cols_b, so the
  // kernel writes it in place. The bias is added to the finished product:
  // each output rounds as product + bias. The last sample's unfold stays
  // in columns_ for the backward.
  Tensor output({batch, out_channels_, out_h, out_w});
  for (int64_t b = 0; b < batch; ++b) {
    Im2ColInto(input.data() + b * image_size, in_channels_, in_h, in_w,
               kernel_size_, padding_, columns_.data());
    float* out = output.data() + b * out_channels_ * spatial;
    MatmulInto(weight_.value.data(), columns_.data(), out, out_channels_, kk,
               spatial);
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float bias = with_bias_ ? bias_.value[oc] : 0.0f;
      for (int64_t i = 0; i < spatial; ++i) out[oc * spatial + i] += bias;
    }
  }
  cached_input_ = std::move(input);
  return output;
}

Tensor Conv2d::Backward(
    Tensor grad_output,
    std::vector<double>* ghost_norm_sq,  // geodp: per-sample norms out
    bool input_grad) {
  GEODP_CHECK_EQ(grad_output.ndim(), 4);
  const Tensor& input = cached_input_;
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_h = grad_output.dim(2), out_w = grad_output.dim(3);
  GEODP_CHECK_EQ(grad_output.dim(0), batch);
  GEODP_CHECK_EQ(grad_output.dim(1), out_channels_);
  if (ghost_norm_sq != nullptr) {  // geodp: per-sample
    GEODP_CHECK_EQ(ghost_norm_sq->size(),  // geodp: per-sample
                   static_cast<size_t>(batch));
  }

  const int64_t kk = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t spatial = out_h * out_w;
  const int64_t image_size = in_channels_ * in_h * in_w;
  GEODP_CHECK_EQ(columns_.numel(), kk * spatial);
  if (product_.numel() != out_channels_ * kk) {
    product_ = Tensor({out_channels_, kk});
  }
  if (ghost_norm_sq != nullptr) {  // geodp: per-sample
    if (cached_columns_t_.numel() != batch * spatial * kk) {
      cached_columns_t_ = Tensor({batch, spatial, kk});
    }
  } else {
    if (columns_t_.numel() != spatial * kk) columns_t_ = Tensor({spatial, kk});
    weight_grad_matrix_.Fill(0.0f);
  }
  Tensor grad_input;
  if (input_grad) {
    TransposeInto(weight_.value.data(), out_channels_, kk, weight_t_.data());
    if (grad_columns_.numel() != kk * spatial) {
      grad_columns_ = Tensor({kk, spatial});
    }
    grad_input = Tensor(input.shape());
  }

  for (int64_t b = 0; b < batch; ++b) {
    // Sample b's unfold, transposed; ghost keeps every sample's so that
    // GhostAccumulate need not unfold again. The forward left the last
    // sample's unfold in columns_; transposing it copies the same values
    // Im2ColTransposedInto would.
    float* cols_t = columns_t_.data();
    if (ghost_norm_sq != nullptr) {  // geodp: per-sample
      cols_t = cached_columns_t_.data() + b * spatial * kk;
    }
    if (b + 1 == batch) {
      TransposeInto(columns_.data(), kk, spatial, cols_t);
    } else {
      Im2ColTransposedInto(input.data() + b * image_size, in_channels_, in_h,
                           in_w, kernel_size_, padding_, cols_t);
    }
    const float* gy = grad_output.data() + b * out_channels_ * spatial;
    // G_b = gy_b cols_b^T in scratch, so each sample's product rounds on
    // its own before joining the batch sum or giving its norm.
    simd::MatmulRowBlock(gy, cols_t, product_.data(), 0, out_channels_,
                         spatial, kk);
    if (ghost_norm_sq != nullptr) {  // geodp: per-sample
      double norm_sq = simd::SumSquares(
          product_.data(),      // geodp: per-sample
          out_channels_ * kk);  // geodp: per-sample norm squared
      if (with_bias_) {
        for (int64_t oc = 0; oc < out_channels_; ++oc) {
          const double sum = RowSum(gy + oc * spatial, spatial);
          norm_sq += sum * sum;
        }
      }
      (*ghost_norm_sq)[static_cast<size_t>(b)] +=  // geodp: per-sample
          norm_sq;
    } else {
      weight_grad_matrix_.AddInPlace(product_);
      if (with_bias_) {
        for (int64_t oc = 0; oc < out_channels_; ++oc) {
          bias_.grad[oc] +=
              static_cast<float>(RowSum(gy + oc * spatial, spatial));
        }
      }
    }
    if (input_grad) {
      // dX_cols = W^T @ dY, folded onto sample b's zeroed input gradient.
      simd::MatmulRowBlock(weight_t_.data(), gy, grad_columns_.data(), 0, kk,
                           out_channels_, spatial);
      Col2ImInto(grad_columns_.data(), in_channels_, in_h, in_w,
                 kernel_size_, padding_, grad_input.data() + b * image_size);
    }
  }
  if (ghost_norm_sq != nullptr) {  // geodp: per-sample
    cached_grad_output_ = std::move(grad_output);
  } else {
    simd::Add(weight_.grad.data(), weight_grad_matrix_.data(),
              weight_grad_matrix_.numel());
  }
  return grad_input;
}

void Conv2d::GhostAccumulate(const std::vector<double>& weights) {
  GEODP_CHECK(!cached_grad_output_.empty())
      << "GhostAccumulate before a ghost Backward";
  const int64_t batch = cached_grad_output_.dim(0);
  GEODP_CHECK_EQ(static_cast<int64_t>(weights.size()), batch);
  const int64_t kk = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t spatial =
      cached_grad_output_.dim(2) * cached_grad_output_.dim(3);
  GEODP_CHECK_EQ(cached_columns_t_.numel(), batch * spatial * kk);
  weight_grad_matrix_.Fill(0.0f);

  for (int64_t b = 0; b < batch; ++b) {
    // Zero-weight samples (non-finite exclusions) are skipped outright —
    // never multiplied, so 0 * inf cannot poison the accumulation.
    const double scale = weights[static_cast<size_t>(b)];
    if (scale == 0.0) continue;
    const float* gy =
        cached_grad_output_.data() + b * out_channels_ * spatial;
    const float* cols_t = cached_columns_t_.data() + b * spatial * kk;
    // Replay G_b = gy_b cols^T from the cached unfold, then fold it into
    // the batch sum under the clip weight.
    simd::MatmulRowBlock(gy, cols_t,
                         product_.data(),  // geodp: per-sample
                         0, out_channels_, spatial, kk);
    simd::ClipAxpy(weight_grad_matrix_.data(),
                   product_.data(),  // geodp: per-sample
                   static_cast<float>(scale), out_channels_ * kk);
    if (with_bias_) {
      for (int64_t oc = 0; oc < out_channels_; ++oc) {
        bias_.grad[oc] += static_cast<float>(
            scale * RowSum(gy + oc * spatial, spatial));
      }
    }
  }
  simd::Add(weight_.grad.data(), weight_grad_matrix_.data(),
            weight_grad_matrix_.numel());
}

std::vector<Parameter*> Conv2d::Parameters() {
  if (with_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace geodp
