#include "tensor/tensor.h"

#include <cmath>
#include <numeric>

#include "base/simd/kernels.h"

namespace geodp {
namespace {

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t extent : shape) {
    GEODP_CHECK_GT(extent, 0) << "tensor extents must be positive";
    n *= extent;
  }
  return n;
}

}  // namespace

Tensor::Tensor(std::vector<int64_t> shape) : shape_(std::move(shape)) {
  data_.assign(static_cast<size_t>(ShapeNumel(shape_)), 0.0f);
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> data) {
  const int64_t n = ShapeNumel(shape);
  GEODP_CHECK_EQ(n, static_cast<int64_t>(data.size()))
      << "data size does not match shape";
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data);
  return t;
}

Tensor Tensor::Vector(std::vector<float> data) {
  const int64_t n = static_cast<int64_t>(data.size());
  return FromVector({n}, std::move(data));
}

Tensor Tensor::Zeros(std::vector<int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::Randn(std::vector<int64_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.Gaussian(0.0, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(std::vector<int64_t> shape, Rng& rng, float lo,
                           float hi) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

int64_t Tensor::dim(int i) const {
  GEODP_CHECK(i >= 0 && i < ndim()) << "dim index " << i << " out of range";
  return shape_[static_cast<size_t>(i)];
}

Tensor Tensor::Reshape(std::vector<int64_t> new_shape) && {
  int64_t known = 1;
  int infer_axis = -1;
  for (size_t i = 0; i < new_shape.size(); ++i) {
    if (new_shape[i] == -1) {
      GEODP_CHECK_EQ(infer_axis, -1) << "at most one -1 extent";
      infer_axis = static_cast<int>(i);
    } else {
      GEODP_CHECK_GT(new_shape[i], 0);
      known *= new_shape[i];
    }
  }
  if (infer_axis >= 0) {
    GEODP_CHECK_EQ(numel() % known, 0) << "cannot infer extent";
    new_shape[static_cast<size_t>(infer_axis)] = numel() / known;
    known *= new_shape[static_cast<size_t>(infer_axis)];
  }
  GEODP_CHECK_EQ(known, numel()) << "reshape changes element count";
  shape_ = std::move(new_shape);
  return std::move(*this);
}

void Tensor::Fill(float value) {
  for (auto& v : data_) v = value;
}

void Tensor::AddInPlace(const Tensor& other) {
  GEODP_CHECK(SameShape(*this, other));
  simd::Add(data_.data(), other.data(), numel());
}

void Tensor::SubInPlace(const Tensor& other) {
  GEODP_CHECK(SameShape(*this, other));
  for (int64_t i = 0; i < numel(); ++i) data_[static_cast<size_t>(i)] -= other[i];
}

void Tensor::ScaleInPlace(float factor) {
  simd::Scale(data_.data(), factor, numel());
}

void Tensor::AxpyInPlace(float alpha, const Tensor& x) {
  GEODP_CHECK(SameShape(*this, x));
  simd::Axpy(data_.data(), x.data(), alpha, numel());
}

double Tensor::L2Norm() const {
  return std::sqrt(simd::SumSquares(data_.data(), numel()));
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

}  // namespace geodp
