// Tests for base/byte_view.h — the audited home of type punning (lint
// rule R6) — plus byte-exact golden tests proving the codecs (GDPT
// tensors, GDPC model checkpoints, GDPK training checkpoints) still emit
// exactly the wire bytes they always have. The golden streams
// are assembled with std::memcpy and a hand-rolled CRC only, so they do
// not depend on the code under test.

#include <array>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/byte_view.h"
#include "base/rng.h"
#include "ckpt/checkpoint.h"
#include "nn/checkpoint.h"
#include "nn/linear.h"
#include "nn/parameter.h"
#include "tensor/serialization.h"
#include "tensor/tensor.h"

namespace geodp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Appends the object's bytes via memcpy only — independent of
// byte_view.h, so golden streams are built without the code under test.
template <typename T>
void AppendPod(std::string& out, const T& value) {
  std::array<char, sizeof(T)> buffer;
  std::memcpy(buffer.data(), &value, sizeof(T));
  out.append(buffer.data(), buffer.size());
}

// Independent bitwise CRC-32 (reflected 0xEDB88320) — deliberately not
// the table implementation in base/crc32.cc, so the trailer check
// cross-validates both.
uint32_t TestCrc32(const std::string& data) {
  uint32_t state = 0xFFFFFFFFu;
  for (const char c : data) {
    state ^= static_cast<unsigned char>(c);
    for (int bit = 0; bit < 8; ++bit) {
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
    }
  }
  return state ^ 0xFFFFFFFFu;
}

TEST(ByteViewTest, PunCastPreservesAddressAndConstness) {
  struct Probe {
    int x = 7;
  };
  Probe probe;
  EXPECT_EQ(static_cast<void*>(PunCast<char>(&probe)),
            static_cast<void*>(&probe));
  const Probe& const_probe = probe;
  const char* viewed = PunCast<const char>(&const_probe);
  EXPECT_EQ(static_cast<const void*>(viewed),
            static_cast<const void*>(&const_probe));
}

// The GDPT v2 encoding of one tensor, assembled by hand: magic, version,
// rank, extents, raw float32 data, then the trailer (byte length and CRC-32
// of everything before it).
std::string GoldenTensorBytes(const std::vector<int64_t>& shape,
                              const float* data, size_t count) {
  std::string payload = "GDPT";
  AppendPod(payload, uint32_t{2});  // version
  AppendPod(payload, static_cast<uint32_t>(shape.size()));
  for (const int64_t extent : shape) AppendPod(payload, extent);
  for (size_t i = 0; i < count; ++i) AppendPod(payload, data[i]);
  std::string bytes = payload;
  AppendPod(bytes, static_cast<uint64_t>(payload.size()));
  AppendPod(bytes, TestCrc32(payload));
  return bytes;
}

TEST(GoldenBytesTest, TensorWireFormatIsUnchanged) {
  const std::vector<float> data = {0.0f, 1.5f, -2.25f, 3.0f, 4.5f, -6.75f};
  const Tensor tensor = Tensor::FromVector({2, 3}, data);
  ByteWriter out;
  WriteTensor(tensor, out);

  EXPECT_EQ(out.bytes(), GoldenTensorBytes({2, 3}, data.data(), data.size()));
}

TEST(GoldenBytesTest, CheckpointContainerFormatIsUnchanged) {
  Rng rng(11);
  Linear model(3, 2, rng);
  const std::string path = TempPath("byte_view_golden.gdpc");
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());

  std::string expected = "GDPC";
  const std::vector<Parameter*> params = model.Parameters();
  AppendPod(expected, static_cast<uint32_t>(params.size()));
  for (Parameter* p : params) {
    AppendPod(expected, static_cast<uint32_t>(p->name.size()));
    expected += p->name;
    expected += GoldenTensorBytes(p->value.shape(), p->value.data(),
                                  static_cast<size_t>(p->value.numel()));
  }

  EXPECT_EQ(ReadWholeFile(path), expected);
}

TEST(GoldenBytesTest, TrainingCheckpointEnvelopeIsUnchanged) {
  TrainingCheckpoint c;
  c.next_attempt = 9;
  c.accepted_updates = 8;
  c.loss_iterations = {0, 5};
  c.loss_history = {2.5, 1.25};
  c.empty_lots = 1;
  c.current_beta = 0.125;
  c.param_names = {"w", "b"};
  c.param_values = {Tensor::FromVector({2, 2}, {1.0f, -2.0f, 0.5f, 4.0f}),
                    Tensor::FromVector({2}, {0.25f, -0.75f})};
  c.noise_rng.state[0] = 0x0123456789ABCDEFu;
  c.noise_rng.has_cached_gaussian = true;
  c.noise_rng.cached_gaussian = -1.5;
  c.uniform_sampler.order = {2, 0, 1};
  c.uniform_sampler.cursor = 1;
  c.importance_sampler.weights = {1.0, 3.0};
  c.importance_sampler.seen = {true, false};
  c.adam.m = Tensor::FromVector({3}, {0.5f, 0.5f, 0.5f});
  c.adam.step = 8;
  c.accountant_orders = {2, 4};
  c.accountant_rdp = {0.5, 0.75};
  c.accountant_steps = 8;
  PrivacyEvent event;
  event.kind = PrivacyEvent::Kind::kSubsampledGaussian;
  event.noise_multiplier = 1.0;
  event.sampling_rate = 0.25;
  event.count = 8;
  event.note = "golden";
  c.ledger_events = {event};
  c.beta_controller.observations = 2;
  c.beta_controller.min_angle = {0.5};
  c.beta_controller.max_angle = {2.5};
  c.options_fingerprint = "golden|v1";
  const std::string path = TempPath("byte_view_golden.gdpk");
  ASSERT_TRUE(SaveTrainingCheckpoint(c, path).ok());
  const std::string file = ReadWholeFile(path);

  // Envelope: "GDPK", u32 version, u64 payload length, payload, CRC-32 of
  // the payload.
  constexpr size_t kHeaderBytes = 4 + 4 + 8;
  constexpr size_t kCrcBytes = 4;
  ASSERT_GT(file.size(), kHeaderBytes + kCrcBytes);
  const std::string payload =
      file.substr(kHeaderBytes, file.size() - kHeaderBytes - kCrcBytes);
  std::string expected = "GDPK";
  AppendPod(expected, uint32_t{1});
  AppendPod(expected, static_cast<uint64_t>(payload.size()));
  expected += payload;
  AppendPod(expected, TestCrc32(payload));
  EXPECT_EQ(file, expected);

  // The payload layout is pinned by its length and CRC-32, as recorded
  // when this golden was introduced.
  EXPECT_EQ(payload.size(), 644u);
  EXPECT_EQ(TestCrc32(payload), 0xFEEE0068u);
}

}  // namespace
}  // namespace geodp
