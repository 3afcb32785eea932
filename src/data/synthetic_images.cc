#include "data/synthetic_images.h"

#include <cmath>
#include <numbers>
#include <vector>

#include "base/check.h"
#include "base/rng.h"

namespace geodp {
namespace {

// Deterministic class prototype: low-frequency sinusoid grid plus a
// class-positioned Gaussian blob, per channel.
Tensor MakePrototype(int64_t class_id, const SyntheticImageOptions& options,
                     Rng& rng) {
  Tensor proto({options.channels, options.height, options.width});
  // Class-specific frequencies/phases drawn from the class RNG so the
  // prototypes are well separated but deterministic given the seed.
  for (int64_t c = 0; c < options.channels; ++c) {
    const double fx = 1.0 + rng.Uniform() * 2.5;
    const double fy = 1.0 + rng.Uniform() * 2.5;
    const double px = rng.Uniform() * 2.0 * std::numbers::pi;
    const double py = rng.Uniform() * 2.0 * std::numbers::pi;
    // Blob center cycles around the image with the class index.
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(class_id) /
        static_cast<double>(std::max<int64_t>(options.num_classes, 1));
    const double cx = 0.5 + 0.3 * std::cos(angle);
    const double cy = 0.5 + 0.3 * std::sin(angle);
    const double blob_scale = 0.08 + 0.04 * rng.Uniform();
    for (int64_t y = 0; y < options.height; ++y) {
      for (int64_t x = 0; x < options.width; ++x) {
        const double u = static_cast<double>(x) /
                         static_cast<double>(options.width - 1);
        const double v = static_cast<double>(y) /
                         static_cast<double>(options.height - 1);
        const double wave = std::sin(fx * 2.0 * std::numbers::pi * u + px) *
                            std::cos(fy * 2.0 * std::numbers::pi * v + py);
        const double blob =
            1.6 * std::exp(-((u - cx) * (u - cx) + (v - cy) * (v - cy)) /
                           (2.0 * blob_scale));
        proto[(c * options.height + y) * options.width + x] =
            static_cast<float>(0.6 * wave + blob);
      }
    }
  }
  return proto;
}

// Copies `proto` shifted by (dy, dx), zero-filled outside, scaled by `amp`.
Tensor ShiftedCopy(const Tensor& proto, int64_t dy, int64_t dx, float amp) {
  const int64_t channels = proto.dim(0);
  const int64_t height = proto.dim(1);
  const int64_t width = proto.dim(2);
  Tensor out(proto.shape());
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t y = 0; y < height; ++y) {
      const int64_t sy = y - dy;
      if (sy < 0 || sy >= height) continue;
      const float* src = proto.data() + (c * height + sy) * width;
      float* dst = out.data() + (c * height + y) * width;
      for (int64_t x = 0; x < width; ++x) {
        const int64_t sx = x - dx;
        if (sx < 0 || sx >= width) continue;
        dst[x] = amp * src[sx];
      }
    }
  }
  return out;
}

}  // namespace

InMemoryDataset MakeSyntheticImages(const SyntheticImageOptions& options) {
  GEODP_CHECK_GT(options.num_examples, 0);
  GEODP_CHECK_GT(options.num_classes, 1);
  GEODP_CHECK_GT(options.channels, 0);
  GEODP_CHECK_GE(options.height, 4);
  GEODP_CHECK_GE(options.width, 4);
  GEODP_CHECK(options.label_noise >= 0.0 && options.label_noise < 1.0);

  Rng master(options.seed);
  // Prototypes are generated first so they depend only on the seed, not on
  // num_examples.
  std::vector<Tensor> prototypes;
  prototypes.reserve(static_cast<size_t>(options.num_classes));
  for (int64_t k = 0; k < options.num_classes; ++k) {
    Rng class_rng(options.seed * 1000003ULL + static_cast<uint64_t>(k) + 17);
    prototypes.push_back(MakePrototype(k, options, class_rng));
  }

  InMemoryDataset dataset;
  for (int64_t i = 0; i < options.num_examples; ++i) {
    const int64_t true_class =
        static_cast<int64_t>(master.UniformInt(
            static_cast<uint64_t>(options.num_classes)));
    const int64_t span = 2 * options.max_shift + 1;
    const int64_t dy =
        static_cast<int64_t>(master.UniformInt(static_cast<uint64_t>(span))) -
        options.max_shift;
    const int64_t dx =
        static_cast<int64_t>(master.UniformInt(static_cast<uint64_t>(span))) -
        options.max_shift;
    const float amp = static_cast<float>(0.8 + 0.4 * master.Uniform());
    Tensor img = ShiftedCopy(prototypes[static_cast<size_t>(true_class)], dy,
                             dx, amp);
    for (int64_t p = 0; p < img.numel(); ++p) {
      img[p] += static_cast<float>(master.Gaussian(0.0, options.pixel_noise));
    }
    int64_t label = true_class;
    if (master.Uniform() < options.label_noise) {
      label = static_cast<int64_t>(
          master.UniformInt(static_cast<uint64_t>(options.num_classes)));
    }
    dataset.Add(std::move(img), label);
  }
  return dataset;
}

InMemoryDataset MakeMnistLike(const SyntheticImageOptions& options) {
  return MakeSyntheticImages(options);
}

InMemoryDataset MakeCifarLike(SyntheticImageOptions options) {
  options.channels = 3;
  options.height = 16;
  options.width = 16;
  return MakeSyntheticImages(options);
}

}  // namespace geodp
