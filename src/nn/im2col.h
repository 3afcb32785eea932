// im2col / col2im: lowering 2-D convolution to matrix multiplication.
// Conv2d's forward and backward passes are built on these; the tests
// compare them against direct loops (tests/support/conv_reference.h).

#ifndef GEODP_NN_IM2COL_H_
#define GEODP_NN_IM2COL_H_

#include <cstdint>


namespace geodp {

/// Unfolds one image [C, H, W], given as a raw buffer, into a
/// caller-owned matrix [C*K*K, OH*OW] of receptive fields for a KxK kernel
/// with the given symmetric zero padding and stride 1.
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

/// Inverse scatter-add of Im2ColInto: folds columns [C*K*K, OH*OW] back
/// into a caller-owned image buffer [C, H, W], accumulating overlapping
/// contributions; the buffer must be zeroed (or hold a partial sum to fold
/// onto) on entry. Used for the input-gradient pass.
void Col2ImInto(const float* columns, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* image);

}  // namespace geodp

#endif  // GEODP_NN_IM2COL_H_
