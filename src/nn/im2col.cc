#include "nn/im2col.h"

#include <algorithm>

#include "base/check.h"
#include "base/simd/kernels.h"

namespace geodp {

namespace {

// Each output element is either a copy of one image element or the
// padding's +0, so both unfolds are exact.

// One column-matrix row per (c, kh, kw), an [OH, OW] block: its output
// row oh reads image row oh + kh - padding at columns ow + kw - padding.
// Those lie inside the image for oh in [oh_lo, oh_hi) and ow in
// [ow_lo, ow_hi), one strided run per output row; with padding, the block
// is zeroed first.
void Im2ColRows(const float* image, int64_t channels, int64_t height,
                int64_t width, int64_t k, int64_t padding, float* columns) {
  const int64_t out_h = height + 2 * padding - k + 1;
  const int64_t out_w = width + 2 * padding - k + 1;
  const int64_t spatial = out_h * out_w;
  float* dst = columns;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t kh = 0; kh < k; ++kh) {
      const int64_t oh_lo = std::clamp<int64_t>(padding - kh, 0, out_h);
      const int64_t oh_hi =
          std::clamp<int64_t>(height + padding - kh, oh_lo, out_h);
      for (int64_t kw = 0; kw < k; ++kw, dst += spatial) {
        const int64_t ow_lo = std::clamp<int64_t>(padding - kw, 0, out_w);
        const int64_t ow_hi =
            std::clamp<int64_t>(width + padding - kw, ow_lo, out_w);
        if (padding > 0) std::fill(dst, dst + spatial, 0.0f);
        if (oh_lo == oh_hi || ow_lo == ow_hi) continue;
        const float* src =
            image + (c * height + oh_lo + kh - padding) * width + ow_lo +
            kw - padding;
        simd::CopyRuns(src, width, dst + oh_lo * out_w + ow_lo, out_w,
                       oh_hi - oh_lo, ow_hi - ow_lo);
      }
    }
  }
}

// Im2ColTransposedRows is one template over the kernel size: kK > 0 fixes
// it at compile time (every model in src/models/ uses 3x3 kernels, whose
// K-wide runs then unroll), kK == 0 reads it from `kernel_size`.
template <int64_t kK>
void Im2ColTransposedRows(const float* image, int64_t channels,
                          int64_t height, int64_t width, int64_t kernel_size,
                          int64_t padding, float* columns_t) {
  const int64_t k = kK > 0 ? kK : kernel_size;
  const int64_t out_h = height + 2 * padding - k + 1;
  const int64_t out_w = width + 2 * padding - k + 1;
  float* dst = columns_t;
  // One row per output position (oh, ow); its K-wide run for (c, kh)
  // reads image row oh + kh - padding from column ow - padding. The taps
  // inside the image are kh in [kh_lo, kh_hi) and kw in [kw_lo, kw_hi).
  for (int64_t oh = 0; oh < out_h; ++oh) {
    const int64_t kh_lo = std::clamp<int64_t>(padding - oh, 0, k);
    const int64_t kh_hi =
        std::clamp<int64_t>(height + padding - oh, kh_lo, k);
    for (int64_t ow = 0; ow < out_w; ++ow) {
      const int64_t kw_lo = std::clamp<int64_t>(padding - ow, 0, k);
      const int64_t kw_hi =
          std::clamp<int64_t>(width + padding - ow, kw_lo, k);
      for (int64_t c = 0; c < channels; ++c) {
        for (int64_t kh = 0; kh < k; ++kh, dst += k) {
          if (kh < kh_lo || kh >= kh_hi) {
            for (int64_t kw = 0; kw < k; ++kw) dst[kw] = 0.0f;
            continue;
          }
          const float* src = image + (c * height + oh + kh - padding) * width;
          const int64_t shift = ow - padding;
          if (kw_lo == 0 && kw_hi == k) {  // the whole run is inside
            for (int64_t kw = 0; kw < k; ++kw) dst[kw] = src[kw + shift];
            continue;
          }
          for (int64_t kw = 0; kw < k; ++kw) {
            dst[kw] = kw >= kw_lo && kw < kw_hi ? src[kw + shift] : 0.0f;
          }
        }
      }
    }
  }
}

}  // namespace

void Im2ColInto(const float* image, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* columns) {
  Im2ColRows(image, channels, height, width, kernel_size, padding, columns);
}

void Im2ColTransposedInto(const float* image, int64_t channels,
                          int64_t height, int64_t width, int64_t kernel_size,
                          int64_t padding, float* columns_t) {
  (kernel_size == 3 ? Im2ColTransposedRows<3> : Im2ColTransposedRows<0>)(
      image, channels, height, width, kernel_size, padding, columns_t);
}

void Col2ImInto(const float* columns, int64_t channels, int64_t height,
                int64_t width, int64_t kernel_size, int64_t padding,
                float* image) {
  // Serial: a fold is a few thousand adds per sample, less than a pool
  // fork-join costs.
  simd::Col2Im(columns, channels, height, width, kernel_size, padding, image);
}

}  // namespace geodp
