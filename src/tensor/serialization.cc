#include "tensor/serialization.h"

#include <cstring>
#include <string_view>

#include "base/crc32.h"

namespace geodp {
namespace {

constexpr std::string_view kMagic = "GDPT";
// v1: magic, version, ndim, extents, raw float32 data.
// v2 appends the integrity trailer, so torn writes and bit flips fail
// loudly at read time.
constexpr uint32_t kLegacyVersion = 1;
constexpr uint32_t kVersion = 2;
// Refuse absurd shapes, so a corrupt header is rejected before its data.
constexpr uint32_t kMaxDims = 16;
constexpr int64_t kMaxElements = int64_t{1} << 34;

}  // namespace

void WriteTensor(const Tensor& tensor, ByteWriter& out) {
  const size_t start = out.position();
  out.WriteBytes(kMagic.data(), kMagic.size());
  out.WriteU32(kVersion);
  out.WriteU32(static_cast<uint32_t>(tensor.ndim()));
  for (const int64_t extent : tensor.shape()) out.WriteI64(extent);
  out.WriteBytes(tensor.data(),
                 static_cast<size_t>(tensor.numel()) * sizeof(float));
  const std::string_view payload = out.Since(start);
  const uint64_t length = payload.size();
  const uint32_t crc = Crc32(payload.data(), payload.size());
  out.WriteU64(length);
  out.WriteU32(crc);
}

StatusOr<Tensor> ReadTensor(ByteReader& in) {
  const size_t start = in.position();
  if (in.ReadBytes(kMagic.size()) != kMagic) {
    return Status::InvalidArgument("bad tensor magic");
  }
  const uint32_t version = in.ReadU32();
  if (version != kLegacyVersion && version != kVersion) {
    return Status::InvalidArgument("unsupported tensor version");
  }
  const uint32_t ndim = in.ReadU32();
  if (in.failed() || ndim > kMaxDims) {
    return Status::InvalidArgument("bad tensor rank");
  }
  std::vector<int64_t> shape(ndim);
  for (int64_t& extent : shape) extent = in.ReadI64();
  StatusOr<Tensor> tensor = ReadTensorData(std::move(shape), in);
  if (!tensor.ok() || version == kLegacyVersion) return tensor;

  const std::string_view payload = in.Since(start);
  const uint64_t stored_length = in.ReadU64();
  const uint32_t stored_crc = in.ReadU32();
  if (in.failed()) {
    return Status::InvalidArgument("truncated tensor trailer");
  }
  if (stored_length != payload.size()) {
    return Status::InvalidArgument("tensor payload length mismatch");
  }
  if (stored_crc != Crc32(payload.data(), payload.size())) {
    return Status::InvalidArgument("tensor checksum mismatch");
  }
  return tensor;
}

StatusOr<Tensor> ReadTensorData(std::vector<int64_t> shape, ByteReader& in) {
  // An empty shape is an empty (default-constructed) tensor, not a rank-0
  // scalar; FromVector would read it as the latter.
  if (shape.empty()) return Tensor();
  int64_t numel = 1;
  for (const int64_t extent : shape) {
    if (extent <= 0) {
      in.Fail();
      return Status::InvalidArgument("bad tensor extent");
    }
    if (numel > kMaxElements / extent) {
      in.Fail();
      return Status::InvalidArgument("tensor too large");
    }
    numel *= extent;
  }
  const std::string_view bytes =
      in.ReadBytes(static_cast<uint64_t>(numel) * sizeof(float));
  if (in.failed()) return Status::InvalidArgument("truncated tensor data");
  std::vector<float> data(static_cast<size_t>(numel));
  std::memcpy(data.data(), bytes.data(), bytes.size());
  return Tensor::FromVector(std::move(shape), std::move(data));
}

}  // namespace geodp
