// Free-function tensor operations: elementwise arithmetic, linear algebra,
// reductions, and comparison helpers used throughout the library and tests.

#ifndef GEODP_TENSOR_TENSOR_OPS_H_
#define GEODP_TENSOR_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// Elementwise a + b. Shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a - b. Shapes must match.
Tensor Sub(const Tensor& a, const Tensor& b);

/// Elementwise a * b (Hadamard product). Shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * factor.
Tensor Scale(const Tensor& a, float factor);

/// Dot product of flattened tensors. Shapes must match.
double Dot(const Tensor& a, const Tensor& b);

/// Matrix product of a [m, k] and b [k, n] -> [m, n].
Tensor Matmul(const Tensor& a, const Tensor& b);

/// Matmul on raw row-major buffers: out [m, n] += a [m, k] · b [k, n],
/// with out zeroed by the caller. Same bits as Matmul, for callers that
/// reuse their own output buffer.
void MatmulInto(const float* a, const float* b, float* out, int64_t m,
                int64_t k, int64_t n);

/// Transpose of a 2-D tensor.
Tensor Transpose(const Tensor& a);

/// Index of the maximum element in each row of a [m, n] tensor.
std::vector<int64_t> ArgMaxRows(const Tensor& a);

/// Mean of all elements.
double Mean(const Tensor& a);

/// Maximum absolute elementwise difference; shapes must match.
double MaxAbsDiff(const Tensor& a, const Tensor& b);

/// True if shapes match and every element pair differs by at most
/// `atol + rtol * |b|`.
bool AllClose(const Tensor& a, const Tensor& b, double rtol = 1e-5,
              double atol = 1e-6);

/// Adds every tensor into `sum` (shapes must match). Runs in parallel on
/// the global pool with a fixed chunk structure, so the result is
/// bit-identical at any thread count.
void AccumulateSum(const std::vector<Tensor>& tensors, Tensor& sum);

/// Cosine similarity of flattened tensors; returns 0 if either is zero.
double CosineSimilarity(const Tensor& a, const Tensor& b);

}  // namespace geodp

#endif  // GEODP_TENSOR_TENSOR_OPS_H_
