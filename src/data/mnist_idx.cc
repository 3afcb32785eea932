#include "data/mnist_idx.h"

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "base/byte_io.h"
#include "base/io/file_io.h"

namespace geodp {
namespace {

// Reads a whole IDX file through the resilient substrate, preserving the
// historical "cannot open <path>" NotFound message for missing files.
StatusOr<std::string> ReadIdxFile(const std::string& path) {
  StatusOr<std::string> read =
      ReadFileWithRetry(path, RetryPolicy{}, "data.idx_read");
  if (!read.ok() && read.status().code() == StatusCode::kNotFound) {
    return Status::NotFound("cannot open " + path);
  }
  return read;
}

constexpr uint32_t kImageMagic = 2051;  // IDX3: unsigned byte, 3 dims
constexpr uint32_t kLabelMagic = 2049;  // IDX1: unsigned byte, 1 dim

// IDX header fields are big-endian, unlike the repo's other formats.
// Returns 0 once the reader has failed.
uint32_t ReadBigEndian32(ByteReader& in) {
  uint32_t value = 0;
  for (const char byte : in.ReadBytes(4)) {
    value = (value << 8) | static_cast<unsigned char>(byte);
  }
  return value;
}

void WriteBigEndian32(ByteWriter& out, uint32_t value) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out.WriteU8(static_cast<uint8_t>(value >> shift));
  }
}

}  // namespace

StatusOr<InMemoryDataset> LoadMnistIdx(const std::string& images_path,
                                       const std::string& labels_path,
                                       int64_t max_examples) {
  StatusOr<std::string> image_bytes = ReadIdxFile(images_path);
  if (!image_bytes.ok()) return image_bytes.status();
  StatusOr<std::string> label_bytes = ReadIdxFile(labels_path);
  if (!label_bytes.ok()) return label_bytes.status();
  ByteReader images(image_bytes.value());
  ByteReader labels(label_bytes.value());

  if (ReadBigEndian32(images) != kImageMagic) {
    return Status::InvalidArgument("bad image magic in " + images_path);
  }
  const uint32_t image_count = ReadBigEndian32(images);
  const uint32_t rows = ReadBigEndian32(images);
  const uint32_t cols = ReadBigEndian32(images);
  if (images.failed()) {
    return Status::InvalidArgument("truncated image header");
  }
  if (rows == 0 || cols == 0 || rows > 4096 || cols > 4096) {
    return Status::InvalidArgument("implausible image dimensions");
  }

  if (ReadBigEndian32(labels) != kLabelMagic) {
    return Status::InvalidArgument("bad label magic in " + labels_path);
  }
  const uint32_t label_count = ReadBigEndian32(labels);
  if (labels.failed()) {
    return Status::InvalidArgument("truncated label header");
  }
  if (label_count != image_count) {
    return Status::FailedPrecondition("image/label count mismatch");
  }

  int64_t count = static_cast<int64_t>(image_count);
  if (max_examples > 0) count = std::min<int64_t>(count, max_examples);

  const int64_t pixels = static_cast<int64_t>(rows) * cols;
  InMemoryDataset dataset;
  for (int64_t i = 0; i < count; ++i) {
    const std::string_view pixel_bytes =
        images.ReadBytes(static_cast<uint64_t>(pixels));
    const uint8_t label = labels.ReadU8();
    if (images.failed() || labels.failed()) {
      return Status::InvalidArgument("truncated IDX data at example " +
                                     std::to_string(i));
    }
    Tensor image({1, static_cast<int64_t>(rows), static_cast<int64_t>(cols)});
    for (int64_t p = 0; p < pixels; ++p) {
      image[p] = static_cast<float>(static_cast<unsigned char>(
                     pixel_bytes[static_cast<size_t>(p)])) /
                 255.0f;
    }
    dataset.Add(std::move(image), static_cast<int64_t>(label));
  }
  return dataset;
}

Status SaveMnistIdx(const InMemoryDataset& dataset,
                    const std::string& images_path,
                    const std::string& labels_path) {
  if (dataset.size() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  const Tensor& first = dataset.image(0);
  if (first.ndim() != 3 || first.dim(0) != 1) {
    return Status::InvalidArgument("IDX export needs [1, rows, cols] images");
  }
  const int64_t rows = first.dim(1), cols = first.dim(2);

  ByteWriter images;
  ByteWriter labels;

  WriteBigEndian32(images, kImageMagic);
  WriteBigEndian32(images, static_cast<uint32_t>(dataset.size()));
  WriteBigEndian32(images, static_cast<uint32_t>(rows));
  WriteBigEndian32(images, static_cast<uint32_t>(cols));
  WriteBigEndian32(labels, kLabelMagic);
  WriteBigEndian32(labels, static_cast<uint32_t>(dataset.size()));

  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& image = dataset.image(i);
    for (int64_t p = 0; p < image.numel(); ++p) {
      const float clamped = std::clamp(image[p], 0.0f, 1.0f);
      images.WriteU8(static_cast<uint8_t>(clamped * 255.0f + 0.5f));
    }
    labels.WriteU8(static_cast<uint8_t>(dataset.label(i)));
  }
  const Status images_written = AtomicWriteFile(
      images_path, images.bytes(), RetryPolicy{}, "data.idx_write");
  if (!images_written.ok()) return images_written;
  return AtomicWriteFile(labels_path, labels.bytes(), RetryPolicy{},
                         "data.idx_write");
}

}  // namespace geodp
