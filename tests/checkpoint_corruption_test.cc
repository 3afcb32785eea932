// Exhaustive corruption regression suite for the GDPC model checkpoint
// (nn/checkpoint.cc): flip a bit at EVERY byte offset and truncate at
// EVERY length — every corrupt file must produce a non-OK Status, never a
// crash, and never a partially mutated model.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "base/rng.h"
#include "models/logistic_regression.h"
#include "nn/checkpoint.h"
#include "nn/parameter.h"

namespace geodp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Raw bytes of the model weights, for bit-exact no-mutation checks.
std::string WeightBytes(Sequential& model) {
  const Tensor flat = FlattenValues(model.Parameters());
  std::string bytes(static_cast<size_t>(flat.numel()) * sizeof(float), '\0');
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  return bytes;
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A deliberately tiny model keeps the exhaustive sweeps fast.
    Rng source_rng(21);
    source_ = MakeLogisticRegression(16, 4, source_rng);
    // ctest runs each case as its own process, concurrently under -j, so
    // every case needs its own file.
    path_ = TempPath(std::string("corruption_") +
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name() +
                     ".gdpc");
    ASSERT_TRUE(SaveCheckpoint(*source_, path_).ok());
    good_bytes_ = ReadFile(path_);
    ASSERT_GT(good_bytes_.size(), 16u);

    Rng target_rng(22);  // different init than the checkpoint
    target_ = MakeLogisticRegression(16, 4, target_rng);
    target_before_ = WeightBytes(*target_);
  }

  std::unique_ptr<Sequential> source_;
  std::unique_ptr<Sequential> target_;
  std::string path_;
  std::string good_bytes_;
  std::string target_before_;
};

TEST_F(CheckpointCorruptionTest, BitFlipAtEveryOffsetIsRejected) {
  for (size_t offset = 0; offset < good_bytes_.size(); ++offset) {
    for (const uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string bad = good_bytes_;
      bad[offset] = static_cast<char>(bad[offset] ^ mask);
      WriteFile(path_, bad);
      const Status status = LoadCheckpoint(*target_, path_);
      EXPECT_FALSE(status.ok())
          << "flip of mask " << int{mask} << " at offset " << offset
          << " was accepted";
      EXPECT_EQ(WeightBytes(*target_), target_before_)
          << "model mutated by rejected load (offset " << offset << ")";
    }
  }
}

TEST_F(CheckpointCorruptionTest, TruncationAtEveryLengthIsRejected) {
  for (size_t keep = 0; keep < good_bytes_.size(); ++keep) {
    WriteFile(path_, good_bytes_.substr(0, keep));
    const Status status = LoadCheckpoint(*target_, path_);
    EXPECT_FALSE(status.ok())
        << "truncation to " << keep << " bytes was accepted";
    EXPECT_EQ(WeightBytes(*target_), target_before_)
        << "model mutated by rejected load (keep " << keep << ")";
  }
}

TEST_F(CheckpointCorruptionTest, AppendedGarbageIsRejected) {
  for (const size_t extra : {size_t{1}, size_t{33}}) {
    WriteFile(path_, good_bytes_ + std::string(extra, '\x5a'));
    const Status status = LoadCheckpoint(*target_, path_);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << extra << " appended bytes: " << status.ToString();
    EXPECT_EQ(WeightBytes(*target_), target_before_)
        << "model mutated by rejected load (" << extra << " extra bytes)";
  }
}

TEST_F(CheckpointCorruptionTest, IntactFileRoundTripsExactly) {
  WriteFile(path_, good_bytes_);
  ASSERT_TRUE(LoadCheckpoint(*target_, path_).ok());
  EXPECT_EQ(WeightBytes(*target_), WeightBytes(*source_));
}

}  // namespace
}  // namespace geodp
