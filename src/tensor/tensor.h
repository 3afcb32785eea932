// Dense row-major float32 tensor with value semantics.
//
// This is the numeric substrate for the whole library: gradients, model
// parameters, images and activations are all Tensors. The design favors
// simplicity and determinism over peak performance: data is always
// contiguous, ops are single-threaded, and all randomness flows through
// geodp::Rng.

#ifndef GEODP_TENSOR_TENSOR_H_
#define GEODP_TENSOR_TENSOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "base/check.h"
#include "base/rng.h"

namespace geodp {

/// Dense N-dimensional float array, row-major, always contiguous.
/// Copy is deep (value semantics); move is cheap.
class Tensor {
 public:
  /// Empty tensor (ndim 0, numel 0).
  Tensor() = default;

  /// Zero-filled tensor of the given shape. All extents must be positive.
  explicit Tensor(std::vector<int64_t> shape);

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) = default;
  Tensor& operator=(Tensor&&) = default;

  /// Wraps `data` (must have exactly the shape's element count).
  static Tensor FromVector(std::vector<int64_t> shape,
                           std::vector<float> data);

  /// 1-D tensor from a flat list of values.
  static Tensor Vector(std::vector<float> data);

  static Tensor Zeros(std::vector<int64_t> shape);

  /// I.i.d. N(0, stddev^2) entries.
  static Tensor Randn(std::vector<int64_t> shape, Rng& rng,
                      float stddev = 1.0f);

  /// I.i.d. Uniform[lo, hi) entries.
  static Tensor RandUniform(std::vector<int64_t> shape, Rng& rng, float lo,
                            float hi);

  const std::vector<int64_t>& shape() const { return shape_; }
  int ndim() const { return static_cast<int>(shape_.size()); }
  int64_t dim(int i) const;
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat (row-major) element access.
  float& operator[](int64_t i) {
    GEODP_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    GEODP_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  /// Returns the tensor with a new shape; element count must match. A -1
  /// extent is inferred from the remaining dimensions. An lvalue is
  /// copied; an rvalue's data moves into the result.
  Tensor Reshape(std::vector<int64_t> new_shape) const& {
    return Tensor(*this).Reshape(std::move(new_shape));
  }
  Tensor Reshape(std::vector<int64_t> new_shape) &&;

  /// Deep copy (same as copy construction, named for readability).
  Tensor Clone() const { return *this; }

  void Fill(float value);

  /// this += other (shapes must match).
  void AddInPlace(const Tensor& other);

  /// this -= other (shapes must match).
  void SubInPlace(const Tensor& other);

  /// this *= factor.
  void ScaleInPlace(float factor);

  /// this += alpha * x (shapes must match).
  void AxpyInPlace(float alpha, const Tensor& x);

  /// Euclidean (L2) norm of the flattened tensor.
  double L2Norm() const;

 private:
  std::vector<int64_t> shape_;
  std::vector<float> data_;
};

/// True if shapes are identical.
bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace geodp

#endif  // GEODP_TENSOR_TENSOR_H_
