// Allocating tensor helpers that only tests call: elementwise reference
// arithmetic, comparisons, and element access by multi-index. The library
// computes in place on raw buffers (tensor/tensor_ops.h, base/simd/), so
// these serve as the plain reference its results are checked against.

#ifndef GEODP_TESTS_SUPPORT_TENSOR_ORACLES_H_
#define GEODP_TESTS_SUPPORT_TENSOR_ORACLES_H_

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// A tensor of `shape` with every element equal to `value`.
Tensor Full(std::vector<int64_t> shape, float value);

/// Element at a multi-index, e.g. At(t, {row, col}).
float& At(Tensor& t, std::initializer_list<int64_t> index);
float At(const Tensor& t, std::initializer_list<int64_t> index);

/// Sum of all elements, accumulated in double.
double Sum(const Tensor& a);

/// Mean of all elements.
double Mean(const Tensor& a);

/// Elementwise a + b. Shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Elementwise a * b (Hadamard product). Shapes must match.
Tensor Mul(const Tensor& a, const Tensor& b);

/// a * factor.
Tensor Scale(const Tensor& a, float factor);

/// Transpose of a 2-D tensor.
Tensor Transpose(const Tensor& a);

/// Maximum absolute elementwise difference; shapes must match. Equal
/// elements (same-signed infinities included) and NaN against NaN count 0;
/// NaN against a non-NaN counts +inf.
double MaxAbsDiff(const Tensor& a, const Tensor& b);

/// True if shapes match and every element pair differs by at most
/// `atol + rtol * |b|`.
bool AllClose(const Tensor& a, const Tensor& b, double rtol = 1e-5,
              double atol = 1e-6);

}  // namespace geodp

#endif  // GEODP_TESTS_SUPPORT_TENSOR_ORACLES_H_
