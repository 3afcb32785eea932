#include "support/tensor_oracles.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

int64_t FlatIndex(const Tensor& t, std::initializer_list<int64_t> index) {
  GEODP_CHECK_EQ(static_cast<int64_t>(index.size()), t.ndim());
  int64_t flat = 0;
  int axis = 0;
  for (int64_t i : index) {
    GEODP_CHECK(i >= 0 && i < t.dim(axis));
    flat = flat * t.dim(axis) + i;
    ++axis;
  }
  return flat;
}

}  // namespace

Tensor Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

float& At(Tensor& t, std::initializer_list<int64_t> index) {
  return t[FlatIndex(t, index)];
}

float At(const Tensor& t, std::initializer_list<int64_t> index) {
  return t[FlatIndex(t, index)];
}

double Sum(const Tensor& a) {
  double sum = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) sum += static_cast<double>(a[i]);
  return sum;
}

double Mean(const Tensor& a) {
  GEODP_CHECK_GT(a.numel(), 0);
  return Sum(a) / static_cast<double>(a.numel());
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  GEODP_CHECK(SameShape(a, b));
  Tensor out = a;
  for (int64_t i = 0; i < out.numel(); ++i) out[i] *= b[i];
  return out;
}

Tensor Scale(const Tensor& a, float factor) {
  Tensor out = a;
  out.ScaleInPlace(factor);
  return out;
}

Tensor Transpose(const Tensor& a) {
  GEODP_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n, m});
  TransposeInto(a.data(), m, n, out.data());
  return out;
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  GEODP_CHECK(SameShape(a, b));
  double max_diff = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double x = a[i], y = b[i];
    // Equal values, infinities included, differ by 0 and so do two NaNs;
    // a NaN against a number differs by +inf instead of vanishing in max.
    if (x == y || (std::isnan(x) && std::isnan(y))) continue;
    max_diff = std::isnan(x) || std::isnan(y)
                   ? std::numeric_limits<double>::infinity()
                   : std::max(max_diff, std::fabs(x - y));
  }
  return max_diff;
}

bool AllClose(const Tensor& a, const Tensor& b, double rtol, double atol) {
  if (!SameShape(a, b)) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double diff =
        std::fabs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (diff > atol + rtol * std::fabs(static_cast<double>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace geodp
