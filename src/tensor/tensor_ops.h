// Free-function tensor operations: elementwise difference, linear algebra
// and reductions.

#ifndef GEODP_TENSOR_TENSOR_OPS_H_
#define GEODP_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// Elementwise a - b. Shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Dot product of flattened tensors. Shapes must match.
double Dot(const Tensor& a, const Tensor& b);

/// Matrix product of a [m, k] and b [k, n] -> [m, n].
Tensor Matmul(const Tensor& a, const Tensor& b);

/// Matmul on raw row-major buffers: out [m, n] = a [m, k] · b [k, n]. The
/// old contents of out are never read. Same bits as Matmul, for callers
/// that reuse their own output buffer.
void MatmulInto(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n);

/// Transpose on raw row-major buffers: dst [n, m] = src [m, n]^T.
void TransposeInto(const float* src, int64_t m, int64_t n, float* dst);

/// Index of the maximum element in each row of a [m, n] tensor.
std::vector<int64_t> ArgMaxRows(const Tensor& a);

/// Adds every tensor into `sum` (shapes must match). Runs in parallel on
/// the global pool with a fixed chunk structure, so the result is
/// bit-identical at any thread count.
void AccumulateSum(const std::vector<Tensor>& tensors, Tensor& sum);

/// Cosine similarity of flattened tensors; returns 0 if either is zero.
double CosineSimilarity(const Tensor& a, const Tensor& b);

}  // namespace geodp

#endif  // GEODP_TENSOR_TENSOR_OPS_H_
