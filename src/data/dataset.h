// In-memory labeled image dataset plus batch assembly helpers.

#ifndef GEODP_DATA_DATASET_H_
#define GEODP_DATA_DATASET_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// Owns a list of equally-shaped images and their integer labels.
class InMemoryDataset {
 public:
  InMemoryDataset() = default;

  /// Appends one example; all images must share a shape.
  void Add(Tensor image, int64_t label);

  int64_t size() const { return static_cast<int64_t>(labels_.size()); }
  const Tensor& image(int64_t i) const;
  int64_t label(int64_t i) const;
  const std::vector<int64_t>& labels() const { return labels_; }

  /// Stacks the images at `indices` into one batch tensor
  /// [indices.size(), ...image shape...].
  Tensor StackImages(const std::vector<int64_t>& indices) const;

  /// Labels at `indices`, in order.
  std::vector<int64_t> GatherLabels(const std::vector<int64_t>& indices) const;

  /// Splits off the last `count` examples into a new dataset (train/test
  /// split helper). The examples are removed from this dataset.
  InMemoryDataset SplitTail(int64_t count);

 private:
  std::vector<Tensor> images_;
  std::vector<int64_t> labels_;
};

}  // namespace geodp

#endif  // GEODP_DATA_DATASET_H_
