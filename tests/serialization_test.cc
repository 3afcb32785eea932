// Tests for tensor serialization and model checkpoints.

#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "models/cnn.h"
#include "models/mlp.h"
#include "nn/checkpoint.h"
#include "nn/parameter.h"
#include "support/tensor_oracles.h"
#include "tensor/serialization.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// The GDPT encoding of `tensor`.
std::string Encode(const Tensor& tensor) {
  ByteWriter out;
  WriteTensor(tensor, out);
  return out.TakeBytes();
}

// Decodes one tensor from `bytes`, requiring the decode to consume them all.
StatusOr<Tensor> DecodeAll(const std::string& bytes) {
  ByteReader in(bytes);
  StatusOr<Tensor> tensor = ReadTensor(in);
  if (tensor.ok() && in.remaining() != 0) {
    return Status::InvalidArgument("bytes left after the tensor");
  }
  return tensor;
}

TEST(TensorSerializationTest, StreamRoundTrip) {
  Rng rng(1);
  const Tensor original = Tensor::Randn({3, 4, 5}, rng);
  StatusOr<Tensor> restored = DecodeAll(Encode(original));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().shape(), original.shape());
  EXPECT_TRUE(AllClose(restored.value(), original, 0.0, 0.0));
}

TEST(TensorSerializationTest, MultipleTensorsInOneStream) {
  Rng rng(2);
  const Tensor a = Tensor::Randn({4}, rng);
  const Tensor b = Tensor::Randn({2, 2}, rng);
  ByteWriter out;
  WriteTensor(a, out);
  WriteTensor(b, out);
  ByteReader in(out.bytes());
  StatusOr<Tensor> ra = ReadTensor(in);
  StatusOr<Tensor> rb = ReadTensor(in);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(AllClose(ra.value(), a, 0.0, 0.0));
  EXPECT_TRUE(AllClose(rb.value(), b, 0.0, 0.0));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(TensorSerializationTest, RejectsGarbage) {
  StatusOr<Tensor> restored = DecodeAll("this is not a tensor");
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(TensorSerializationTest, RejectsTruncatedData) {
  Rng rng(3);
  const std::string bytes = Encode(Tensor::Randn({64}, rng));
  EXPECT_FALSE(DecodeAll(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST(TensorSerializationTest, RejectsHugeExtentWithoutAllocating) {
  // A corrupt extent claims 2^33 elements (32 GiB). The reader must see
  // that the buffer is too short before it allocates anything.
  std::string bytes = Encode(Tensor::FromVector({2}, {1.0f, 2.0f}));
  const int64_t huge = int64_t{1} << 33;
  std::memcpy(bytes.data() + 12, &huge, sizeof(huge));
  StatusOr<Tensor> restored = DecodeAll(bytes);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().message(), "truncated tensor data");
}

TEST(TensorSerializationTest, BitFlipAnywhereIsDetected) {
  // The v2 integrity trailer (payload length + CRC-32) must catch a single
  // bit flip at any offset, including inside the float payload where no
  // structural check would notice.
  Rng rng(41);
  const std::string bytes = Encode(Tensor::Randn({5, 5}, rng));
  for (size_t offset = 0; offset < bytes.size(); ++offset) {
    std::string bad = bytes;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x04);
    EXPECT_FALSE(DecodeAll(bad).ok())
        << "bit flip at offset " << offset << " went undetected";
  }
}

TEST(TensorSerializationTest, TruncatedTrailerIsDetected) {
  Rng rng(42);
  const std::string bytes = Encode(Tensor::Randn({8}, rng));
  // Cut anywhere inside the 12-byte trailer: the data is all present, so
  // only the trailer checks can notice.
  for (size_t cut = bytes.size() - 12; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeAll(bytes.substr(0, cut)).ok())
        << "trailer truncation at " << cut << " went undetected";
  }
}

TEST(TensorSerializationTest, ReadsLegacyV1WithoutTrailer) {
  // A v1 file is the v2 byte stream minus the trailer, with version 1 in
  // the header. Old files must stay readable.
  Rng rng(43);
  const Tensor original = Tensor::Randn({3, 2}, rng);
  std::string bytes = Encode(original);
  bytes.resize(bytes.size() - 12);  // strip u64 length + u32 crc
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
  StatusOr<Tensor> restored = DecodeAll(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(AllClose(restored.value(), original, 0.0, 0.0));
}

TEST(TensorSerializationTest, EmptyTensorRoundTrips) {
  StatusOr<Tensor> restored = DecodeAll(Encode(Tensor()));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().numel(), 0);
}

TEST(CheckpointTest, CnnRoundTrip) {
  Rng rng(5);
  CnnConfig config;
  config.image_size = 8;
  auto model = MakeCnn(config, rng);
  const std::string path = TempPath("cnn.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());

  Rng rng2(999);  // different init
  auto restored = MakeCnn(config, rng2);
  EXPECT_FALSE(AllClose(FlattenValues(restored->Parameters()),
                        FlattenValues(model->Parameters())));
  ASSERT_TRUE(LoadCheckpoint(*restored, path).ok());
  EXPECT_TRUE(AllClose(FlattenValues(restored->Parameters()),
                       FlattenValues(model->Parameters()), 0.0, 0.0));
  std::remove(path.c_str());
}

TEST(CheckpointTest, RestoredModelComputesSameOutput) {
  Rng rng(6);
  MlpConfig config;
  config.input_dim = 16;
  config.hidden_dims = {8};
  config.num_classes = 4;
  auto model = MakeMlp(config, rng);
  const std::string path = TempPath("mlp.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());

  Rng rng2(7);
  auto restored = MakeMlp(config, rng2);
  ASSERT_TRUE(LoadCheckpoint(*restored, path).ok());
  const Tensor x = Tensor::Randn({3, 1, 4, 4}, rng);
  EXPECT_TRUE(AllClose(restored->Forward(x), model->Forward(x)));
  std::remove(path.c_str());
}

TEST(CheckpointTest, StructureMismatchFails) {
  Rng rng(8);
  MlpConfig small, large;
  small.input_dim = 16;
  small.hidden_dims = {8};
  large.input_dim = 16;
  large.hidden_dims = {8, 8};
  auto model = MakeMlp(small, rng);
  const std::string path = TempPath("mismatch.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());
  auto other = MakeMlp(large, rng);
  const Status status = LoadCheckpoint(*other, path);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ShapeMismatchFails) {
  Rng rng(9);
  MlpConfig a, b;
  a.input_dim = 16;
  a.hidden_dims = {8};
  b.input_dim = 16;
  b.hidden_dims = {12};  // same structure, different width
  auto model = MakeMlp(a, rng);
  const std::string path = TempPath("shape.gdpc");
  ASSERT_TRUE(SaveCheckpoint(*model, path).ok());
  auto other = MakeMlp(b, rng);
  EXPECT_FALSE(LoadCheckpoint(*other, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geodp
