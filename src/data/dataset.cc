#include "data/dataset.h"

#include <algorithm>

#include "base/check.h"

namespace geodp {

void InMemoryDataset::Add(Tensor image, int64_t label) {
  GEODP_CHECK_GE(label, 0);
  if (!images_.empty()) {
    GEODP_CHECK(image.shape() == images_.front().shape())
        << "all images must share a shape";
  }
  images_.push_back(std::move(image));
  labels_.push_back(label);
}

const Tensor& InMemoryDataset::image(int64_t i) const {
  GEODP_CHECK(i >= 0 && i < size());
  return images_[static_cast<size_t>(i)];
}

int64_t InMemoryDataset::label(int64_t i) const {
  GEODP_CHECK(i >= 0 && i < size());
  return labels_[static_cast<size_t>(i)];
}

Tensor InMemoryDataset::StackImages(const std::vector<int64_t>& indices) const {
  GEODP_CHECK(!indices.empty());
  const Tensor& first = image(indices.front());
  std::vector<int64_t> batch_shape;
  batch_shape.push_back(static_cast<int64_t>(indices.size()));
  for (int64_t extent : first.shape()) batch_shape.push_back(extent);
  Tensor batch(batch_shape);
  const int64_t stride = first.numel();
  for (size_t b = 0; b < indices.size(); ++b) {
    const Tensor& img = image(indices[b]);
    std::copy_n(img.data(), stride,
                batch.data() + static_cast<int64_t>(b) * stride);
  }
  return batch;
}

std::vector<int64_t> InMemoryDataset::GatherLabels(
    const std::vector<int64_t>& indices) const {
  std::vector<int64_t> out;
  out.reserve(indices.size());
  for (int64_t i : indices) out.push_back(label(i));
  return out;
}

InMemoryDataset InMemoryDataset::SplitTail(int64_t count) {
  GEODP_CHECK(count >= 0 && count <= size());
  InMemoryDataset tail;
  const int64_t start = size() - count;
  for (int64_t i = start; i < size(); ++i) {
    tail.Add(std::move(images_[static_cast<size_t>(i)]),
             labels_[static_cast<size_t>(i)]);
  }
  images_.resize(static_cast<size_t>(start));
  labels_.resize(static_cast<size_t>(start));
  return tail;
}

}  // namespace geodp
