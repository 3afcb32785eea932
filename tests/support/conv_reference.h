// Reference convolution for tests: allocating im2col / col2im over whole
// tensors, and stride-1 convolution as direct nested loops accumulated in
// double. Conv2d (nn/conv2d.h) lowers to matrix products instead; these
// are the easy-to-audit versions its results are compared against.

#ifndef GEODP_TESTS_SUPPORT_CONV_REFERENCE_H_
#define GEODP_TESTS_SUPPORT_CONV_REFERENCE_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace geodp {

/// Unfolds one image [C, H, W] into a matrix [C*K*K, OH*OW] of receptive
/// fields for a KxK kernel with symmetric zero padding and stride 1.
Tensor Im2Col(const Tensor& image, int64_t kernel_size, int64_t padding);

/// Inverse scatter-add of Im2Col: folds columns [C*K*K, OH*OW] back into
/// an image [C, H, W], accumulating overlapping contributions.
Tensor Col2Im(const Tensor& columns, int64_t channels, int64_t height,
              int64_t width, int64_t kernel_size, int64_t padding);

/// Direct-loop convolution of input [B, IC, H, W] with weight
/// [OC, IC, K, K] and bias [OC] (empty for none) -> [B, OC, OH, OW].
Tensor DirectConv2dForward(const Tensor& input, const Tensor& weight,
                           const Tensor& bias, int64_t padding);

/// Gradients of DirectConv2dForward for dL/d(output) `grad_output`.
struct DirectConv2dGrads {
  Tensor input;   // [B, IC, H, W]
  Tensor weight;  // [OC, IC, K, K]
  Tensor bias;    // [OC]
};
DirectConv2dGrads DirectConv2dBackward(const Tensor& input,
                                       const Tensor& weight,
                                       const Tensor& grad_output,
                                       int64_t padding);

}  // namespace geodp

#endif  // GEODP_TESTS_SUPPORT_CONV_REFERENCE_H_
