#include "nn/im2col.h"

#include <algorithm>

#include "base/check.h"
#include "base/simd/kernels.h"
#include "base/thread_pool.h"

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

namespace {

// dst[i] = src_row[i + shift] for i in [0, count), where reads outside
// [0, width) give the zero padding. A pure copy, so the unfold is exact.
void CopyPadded(float* dst, const float* src_row, int64_t count,
                int64_t shift, int64_t width) {
  const int64_t lo = std::clamp<int64_t>(-shift, 0, count);
  const int64_t hi = std::clamp<int64_t>(width - shift, lo, count);
  std::fill(dst, dst + lo, 0.0f);
  if (hi > lo) std::copy_n(src_row + lo + shift, hi - lo, dst + lo);
  std::fill(dst + hi, dst + count, 0.0f);
}

}  // namespace

void Im2ColInto(const float* image, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* columns) {
  const int64_t out_h = height + 2 * padding - kernel_size + 1;
  const int64_t out_w = width + 2 * padding - kernel_size + 1;
  float* dst = columns;
  // One column-matrix row per (c, kh, kw); its output row oh reads image
  // row oh + kh - padding, shifted by kw - padding.
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t kh = 0; kh < kernel_size; ++kh) {
      for (int64_t kw = 0; kw < kernel_size; ++kw) {
        for (int64_t oh = 0; oh < out_h; ++oh, dst += out_w) {
          const int64_t ih = oh + kh - padding;
          if (ih < 0 || ih >= height) {
            std::fill(dst, dst + out_w, 0.0f);
          } else {
            CopyPadded(dst, image + (c * height + ih) * width, out_w,
                       kw - padding, width);
          }
        }
      }
    }
  }
}

void Im2ColTransposedInto(const float* image, int64_t channels,
                          int64_t height, int64_t width, int64_t kernel_size,
                          int64_t padding, float* columns_t) {
  const int64_t out_h = height + 2 * padding - kernel_size + 1;
  const int64_t out_w = width + 2 * padding - kernel_size + 1;
  float* dst = columns_t;
  // One row per output position (oh, ow); its K-wide run for (c, kh)
  // reads image row oh + kh - padding from column ow - padding.
  for (int64_t oh = 0; oh < out_h; ++oh) {
    for (int64_t ow = 0; ow < out_w; ++ow) {
      for (int64_t c = 0; c < channels; ++c) {
        for (int64_t kh = 0; kh < kernel_size; ++kh, dst += kernel_size) {
          const int64_t ih = oh + kh - padding;
          if (ih < 0 || ih >= height) {
            std::fill(dst, dst + kernel_size, 0.0f);
          } else {
            CopyPadded(dst, image + (c * height + ih) * width, kernel_size,
                       ow - padding, width);
          }
        }
      }
    }
  }
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

void Col2ImInto(const float* columns, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* image) {
  const int64_t out_h = height + 2 * padding - kernel_size + 1;
  const int64_t out_w = width + 2 * padding - kernel_size + 1;
  const float* src = columns;
  float* dst = image;
  const int64_t spatial = out_h * out_w;
  // Overlapping receptive fields of one channel scatter into the same
  // image plane, so the fold parallelizes over channels (disjoint planes);
  // within a channel the kernel loops keep their serial accumulation
  // order, so the result is bit-identical at any thread count.
  ParallelFor(0, channels, /*grain=*/1, [&](int64_t c_begin, int64_t c_end) {
    for (int64_t c = c_begin; c < c_end; ++c) {
      int64_t row = c * kernel_size * kernel_size;
      for (int64_t kh = 0; kh < kernel_size; ++kh) {
        for (int64_t kw = 0; kw < kernel_size; ++kw, ++row) {
          const float* src_row = src + row * spatial;
          // The in-bounds part of each output row is one contiguous span:
          // ow in [ow_lo, ow_hi) maps to iw = ow + kw - padding.
          const int64_t ow_lo = std::max<int64_t>(0, padding - kw);
          const int64_t ow_hi =
              std::min<int64_t>(out_w, width - kw + padding);
          for (int64_t oh = 0; oh < out_h; ++oh) {
            const int64_t ih = oh + kh - padding;
            if (ih < 0 || ih >= height) continue;
            if (ow_hi <= ow_lo) continue;
            float* dst_row = dst + (c * height + ih) * width;
            simd::Add(dst_row + ow_lo + kw - padding,
                      src_row + oh * out_w + ow_lo, ow_hi - ow_lo);
          }
        }
      }
    }
  });
}

}  // namespace geodp
