#include "support/conv_reference.h"

#include "base/check.h"
#include "nn/im2col.h"

namespace geodp {

Tensor Im2Col(const Tensor& image, int64_t kernel_size, int64_t padding) {
  GEODP_CHECK_EQ(image.ndim(), 3);
  GEODP_CHECK_GT(kernel_size, 0);
  GEODP_CHECK_GE(padding, 0);
  const int64_t channels = image.dim(0);
  const int64_t height = image.dim(1);
  const int64_t width = image.dim(2);
  const int64_t out_h = height + 2 * padding - kernel_size + 1;
  const int64_t out_w = width + 2 * padding - kernel_size + 1;
  GEODP_CHECK_GT(out_h, 0);
  GEODP_CHECK_GT(out_w, 0);

  Tensor columns({channels * kernel_size * kernel_size, out_h * out_w});
  Im2ColInto(image.data(), channels, height, width, kernel_size, padding,
             columns.data());
  return columns;
}

Tensor Col2Im(const Tensor& columns, int64_t channels, int64_t height,
              int64_t width, int64_t kernel_size, int64_t padding) {
  GEODP_CHECK_EQ(columns.ndim(), 2);
  const int64_t out_h = height + 2 * padding - kernel_size + 1;
  const int64_t out_w = width + 2 * padding - kernel_size + 1;
  GEODP_CHECK_EQ(columns.dim(0), channels * kernel_size * kernel_size);
  GEODP_CHECK_EQ(columns.dim(1), out_h * out_w);

  Tensor image({channels, height, width});
  Col2ImInto(columns.data(), channels, height, width, kernel_size, padding,
             image.data());
  return image;
}

Tensor DirectConv2dForward(const Tensor& input, const Tensor& weight,
                           const Tensor& bias, int64_t padding) {
  GEODP_CHECK_EQ(input.ndim(), 4);
  GEODP_CHECK_EQ(weight.ndim(), 4);
  const int64_t batch = input.dim(0), in_channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_channels = weight.dim(0), k = weight.dim(2);
  GEODP_CHECK_EQ(weight.dim(1), in_channels);
  const int64_t out_h = in_h + 2 * padding - k + 1;
  const int64_t out_w = in_w + 2 * padding - k + 1;
  GEODP_CHECK_GT(out_h, 0);
  GEODP_CHECK_GT(out_w, 0);

  Tensor output({batch, out_channels, out_h, out_w});
  const float* x = input.data();
  const float* w = weight.data();
  float* y = output.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < out_channels; ++oc) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          double acc = bias.empty() ? 0.0 : static_cast<double>(bias[oc]);
          for (int64_t ic = 0; ic < in_channels; ++ic) {
            for (int64_t kh = 0; kh < k; ++kh) {
              const int64_t ih = oh + kh - padding;
              if (ih < 0 || ih >= in_h) continue;
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t iw = ow + kw - padding;
                if (iw < 0 || iw >= in_w) continue;
                acc += static_cast<double>(
                           x[((b * in_channels + ic) * in_h + ih) * in_w +
                             iw]) *
                       static_cast<double>(
                           w[((oc * in_channels + ic) * k + kh) * k + kw]);
              }
            }
          }
          y[((b * out_channels + oc) * out_h + oh) * out_w + ow] =
              static_cast<float>(acc);
        }
      }
    }
  }
  return output;
}

DirectConv2dGrads DirectConv2dBackward(const Tensor& input,
                                       const Tensor& weight,
                                       const Tensor& grad_output,
                                       int64_t padding) {
  GEODP_CHECK_EQ(grad_output.ndim(), 4);
  const int64_t batch = input.dim(0), in_channels = input.dim(1);
  const int64_t in_h = input.dim(2), in_w = input.dim(3);
  const int64_t out_channels = weight.dim(0), k = weight.dim(2);
  const int64_t out_h = grad_output.dim(2), out_w = grad_output.dim(3);
  GEODP_CHECK_EQ(grad_output.dim(0), batch);
  GEODP_CHECK_EQ(grad_output.dim(1), out_channels);

  DirectConv2dGrads grads{Tensor(input.shape()), Tensor(weight.shape()),
                          Tensor({out_channels})};
  const float* x = input.data();
  const float* w = weight.data();
  const float* gy = grad_output.data();
  float* gx = grads.input.data();
  float* gw = grads.weight.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < out_channels; ++oc) {
      for (int64_t oh = 0; oh < out_h; ++oh) {
        for (int64_t ow = 0; ow < out_w; ++ow) {
          const float g =
              gy[((b * out_channels + oc) * out_h + oh) * out_w + ow];
          grads.bias[oc] += g;
          for (int64_t ic = 0; ic < in_channels; ++ic) {
            for (int64_t kh = 0; kh < k; ++kh) {
              const int64_t ih = oh + kh - padding;
              if (ih < 0 || ih >= in_h) continue;
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t iw = ow + kw - padding;
                if (iw < 0 || iw >= in_w) continue;
                const int64_t xi =
                    ((b * in_channels + ic) * in_h + ih) * in_w + iw;
                const int64_t wi = ((oc * in_channels + ic) * k + kh) * k + kw;
                gw[wi] += g * x[xi];
                gx[xi] += g * w[wi];
              }
            }
          }
        }
      }
    }
  }
  return grads;
}

}  // namespace geodp
