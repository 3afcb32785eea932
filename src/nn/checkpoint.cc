#include "nn/checkpoint.h"

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/byte_io.h"
#include "base/io/file_io.h"
#include "tensor/serialization.h"

namespace geodp {
namespace {

// "GDPC", u32 parameter count, then per parameter: u32 name length, the
// name, and the value as a GDPT tensor.
constexpr std::string_view kMagic = "GDPC";

}  // namespace

Status SaveCheckpoint(Layer& model, const std::string& path) {
  ByteWriter out;
  out.WriteBytes(kMagic.data(), kMagic.size());
  const std::vector<Parameter*> params = model.Parameters();
  out.WriteU32(static_cast<uint32_t>(params.size()));
  for (Parameter* p : params) {
    out.WriteU32(static_cast<uint32_t>(p->name.size()));
    out.WriteBytes(p->name.data(), p->name.size());
    WriteTensor(p->value, out);
  }
  return AtomicWriteFile(path, out.bytes(), RetryPolicy{}, "nn.ckpt_write");
}

Status LoadCheckpoint(Layer& model, const std::string& path) {
  StatusOr<std::string> read =
      ReadFileWithRetry(path, RetryPolicy{}, "nn.ckpt_read");
  if (!read.ok()) {
    if (read.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("cannot open for read: " + path);
    }
    return read.status();
  }
  ByteReader in(read.value());
  if (in.ReadBytes(kMagic.size()) != kMagic) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  const uint32_t count = in.ReadU32();
  if (in.failed()) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  const std::vector<Parameter*> params = model.Parameters();
  if (count != params.size()) {
    return Status::FailedPrecondition("parameter count mismatch");
  }
  // Read everything first so a mismatch cannot leave the model partially
  // overwritten.
  std::vector<Tensor> values;
  values.reserve(params.size());
  for (Parameter* p : params) {
    const std::string_view name = in.ReadBytes(in.ReadU32());
    if (in.failed()) return Status::InvalidArgument("truncated checkpoint");
    if (name != p->name) {
      return Status::FailedPrecondition("parameter name mismatch: expected " +
                                        p->name + ", found " +
                                        std::string(name));
    }
    StatusOr<Tensor> tensor = ReadTensor(in);
    if (!tensor.ok()) return tensor.status();
    if (tensor.value().shape() != p->value.shape()) {
      return Status::FailedPrecondition("parameter shape mismatch for " +
                                        p->name);
    }
    values.push_back(std::move(tensor).value());
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after checkpoint");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = std::move(values[i]);
  }
  return Status::Ok();
}

}  // namespace geodp
