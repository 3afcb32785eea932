// GDPT, the binary format of one tensor: little-endian magic "GDPT", u32
// version, u32 rank, i64 extents, raw float32 data and (since v2) an
// integrity trailer: the u64 byte length and the CRC-32 of everything from
// the magic through the data. Truncated or bit-flipped input fails with a
// clear Status instead of yielding garbage; v1 input (no trailer) stays
// readable. GDPC model checkpoints (nn/checkpoint.h) are a sequence of
// named GDPT tensors.

#ifndef GEODP_TENSOR_SERIALIZATION_H_
#define GEODP_TENSOR_SERIALIZATION_H_

#include <cstdint>
#include <vector>

#include "base/byte_io.h"
#include "base/status.h"
#include "tensor/tensor.h"

namespace geodp {

/// Appends the GDPT v2 encoding of `tensor`.
void WriteTensor(const Tensor& tensor, ByteWriter& out);

/// Decodes one GDPT tensor (v1 or v2) and leaves the reader just past it.
StatusOr<Tensor> ReadTensor(ByteReader& in);

/// Reads the float32 data of a tensor whose `shape` was just decoded. Every
/// tensor reader (GDPT above, the GDPK payload in ckpt/checkpoint.cc) calls
/// it, so they accept the same shapes: an empty shape is the empty
/// (default-constructed) tensor with no data; otherwise every extent must
/// be positive and the total at most 2^34 elements. On failure the reader
/// is marked failed too.
StatusOr<Tensor> ReadTensorData(std::vector<int64_t> shape, ByteReader& in);

}  // namespace geodp

#endif  // GEODP_TENSOR_SERIALIZATION_H_
