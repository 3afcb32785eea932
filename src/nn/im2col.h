// im2col / col2im: lowering 2-D convolution to matrix multiplication.
// Used by Conv2d's fast path; the naive direct loops remain as the
// reference implementation the tests compare against.

#ifndef GEODP_NN_IM2COL_H_
#define GEODP_NN_IM2COL_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace geodp {

/// Unfolds one image [C, H, W] into a matrix [C*K*K, OH*OW] of receptive
/// fields for a KxK kernel with the given symmetric zero padding and
/// stride 1.
Tensor Im2Col(const Tensor& image, int64_t kernel_size, int64_t padding);

/// Raw-pointer Im2Col into a caller-owned buffer of C*K*K * OH*OW floats.
/// Lets batched callers unfold sample slices without staging each image
/// in its own tensor (Conv2d's forward reuses one scratch buffer this way).
void Im2ColInto(const float* image, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* columns);

/// Im2Col written transposed, [OH*OW, C*K*K]: one row of receptive-field
/// values per output position. This is the right operand of a weight
/// gradient dY · cols^T, so Conv2d's backward passes unfold straight into
/// it instead of transposing an unfold.
void Im2ColTransposedInto(const float* image, int64_t channels,
                          int64_t height, int64_t width, int64_t kernel_size,
                          int64_t padding, float* columns_t);

/// Inverse scatter-add of Im2Col: folds columns [C*K*K, OH*OW] back into
/// an image [C, H, W], accumulating overlapping contributions. Used for
/// the input-gradient pass.
Tensor Col2Im(const Tensor& columns, int64_t channels, int64_t height,
              int64_t width, int64_t kernel_size, int64_t padding);

/// Raw-pointer Col2Im accumulating into a caller-owned image buffer of
/// C*H*W floats, which must be zeroed (or hold a partial sum to fold
/// onto) on entry.
void Col2ImInto(const float* columns, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* image);

}  // namespace geodp

#endif  // GEODP_NN_IM2COL_H_
