#include "nn/pooling.h"

#include "base/check.h"
#include "base/simd/kernels.h"

namespace geodp {

MaxPool2d::MaxPool2d(int64_t window) : window_(window) {
  GEODP_CHECK_GT(window_, 0);
}

Tensor MaxPool2d::Forward(Tensor input) {
  GEODP_CHECK_EQ(input.ndim(), 4);
  const int64_t batch = input.dim(0), channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  GEODP_CHECK_EQ(in_h % window_, 0);
  GEODP_CHECK_EQ(in_w % window_, 0);
  const int64_t out_h = in_h / window_, out_w = in_w / window_;

  input_shape_ = input.shape();
  Tensor output({batch, channels, out_h, out_w});
  argmax_.resize(static_cast<size_t>(output.numel()));

  const float* x = input.data();
  float* y = output.data();
  if (window_ == 2) {
    simd::MaxPool2x2(x, batch * channels, out_h, out_w, y, argmax_.data());
    return output;
  }
  int64_t out_index = 0;
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          // The window's first element seeds the max and only a strictly
          // greater one replaces it, so ties and NaN keep the earliest
          // element. Selects, not branches: on sign-random activations
          // which element wins is a coin flip.
          const int64_t first =
              ((b * channels + c) * in_h + oh * window_) * in_w + ow * window_;
          int64_t best_index = first;
          float best = x[first];
          for (int64_t kh = 0; kh < window_; ++kh) {
            for (int64_t kw = 0; kw < window_; ++kw) {
              const int64_t xi = first + kh * in_w + kw;
              const bool greater = x[xi] > best;
              best = greater ? x[xi] : best;
              best_index = greater ? xi : best_index;
            }
          }
          y[out_index] = best;
          argmax_[static_cast<size_t>(out_index)] = best_index;
          ++out_index;
        }
      }
    }
  }
  return output;
}

Tensor MaxPool2d::Backward(Tensor grad_output,
                           std::vector<double>* /*ghost_norm_sq*/,
                           bool /*input_grad*/) {
  GEODP_CHECK_EQ(static_cast<size_t>(grad_output.numel()), argmax_.size());
  Tensor grad_input(input_shape_);
  for (int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[argmax_[static_cast<size_t>(i)]] += grad_output[i];
  }
  return grad_input;
}

Tensor GlobalAvgPool::Forward(Tensor input) {
  GEODP_CHECK_EQ(input.ndim(), 4);
  const int64_t batch = input.dim(0), channels = input.dim(1);
  const int64_t spatial = input.dim(2) * input.dim(3);
  input_shape_ = input.shape();
  Tensor output({batch, channels});
  const float* x = input.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      double sum = 0.0;
      const float* plane = x + (b * channels + c) * spatial;
      for (int64_t i = 0; i < spatial; ++i)
        sum += static_cast<double>(plane[i]);
      output[b * channels + c] =
          static_cast<float>(sum / static_cast<double>(spatial));
    }
  }
  return output;
}

Tensor GlobalAvgPool::Backward(Tensor grad_output,
                               std::vector<double>* /*ghost_norm_sq*/,
                               bool /*input_grad*/) {
  GEODP_CHECK_EQ(grad_output.ndim(), 2);
  const int64_t batch = input_shape_[0], channels = input_shape_[1];
  const int64_t spatial = input_shape_[2] * input_shape_[3];
  GEODP_CHECK_EQ(grad_output.dim(0), batch);
  GEODP_CHECK_EQ(grad_output.dim(1), channels);
  Tensor grad_input(input_shape_);
  float* gx = grad_input.data();
  const float inv = 1.0f / static_cast<float>(spatial);
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < channels; ++c) {
      const float g = grad_output[b * channels + c] * inv;
      float* plane = gx + (b * channels + c) * spatial;
      for (int64_t i = 0; i < spatial; ++i) plane[i] = g;
    }
  }
  return grad_input;
}

}  // namespace geodp
