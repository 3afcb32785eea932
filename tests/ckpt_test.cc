// Unit tests for the crash-safety subsystem: CRC32, bounds-checked byte
// I/O, the GDPK checkpoint format, latest-good fallback, pruning, and
// fault injection.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "base/byte_io.h"
#include "base/crc32.h"
#include "base/fault_injection.h"
#include "ckpt/checkpoint.h"
#include "gtest/gtest.h"

namespace geodp {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

TEST(Crc32Test, KnownVectors) {
  // Standard zlib/IEEE CRC-32 test vectors.
  EXPECT_EQ(Crc32("", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  const std::string hello = "hello world";
  EXPECT_EQ(Crc32(hello.data(), hello.size()), 0x0D4A1185u);
}

TEST(Crc32Test, MatchesTheBytewiseDefinitionAtEveryLengthAndOffset) {
  // Lengths around the eight-byte step at every start offset, against
  // the one-bit-at-a-time definition of the reflected polynomial.
  std::vector<unsigned char> bytes(64 + 8);
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 64; ++size) {
      uint32_t state = 0xFFFFFFFFu;
      for (size_t i = offset; i < offset + size; ++i) {
        state ^= bytes[i];
        for (int bit = 0; bit < 8; ++bit) {
          state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
        }
      }
      EXPECT_EQ(Crc32(bytes.data() + offset, size), state ^ 0xFFFFFFFFu)
          << "offset " << offset << ", size " << size;
    }
  }
}

TEST(ByteIoTest, RoundTripsAllTypes) {
  ByteWriter w;
  w.WriteU8(200);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(uint64_t{1} << 60);
  w.WriteI64(-12345678901234);
  w.WriteDouble(3.141592653589793);
  w.WriteBool(true);
  w.WriteString("checkpoint");
  const size_t write_start = w.position();
  w.WriteBytes("raw", 3);
  EXPECT_EQ(w.Since(write_start), "raw");

  ByteReader r(w.bytes());
  EXPECT_EQ(r.ReadU8(), 200);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), uint64_t{1} << 60);
  EXPECT_EQ(r.ReadI64(), -12345678901234);
  EXPECT_EQ(r.ReadDouble(), 3.141592653589793);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadString(), "checkpoint");
  const size_t read_start = r.position();
  EXPECT_EQ(r.ReadBytes(3), "raw");
  EXPECT_EQ(r.Since(read_start), "raw");
  EXPECT_FALSE(r.failed());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIoTest, TruncatedBufferFailsInsteadOfCrashing) {
  ByteWriter w;
  w.WriteString("some content here");
  const std::string bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader r(std::string_view(bytes).substr(0, cut));
    (void)r.ReadString();
    EXPECT_TRUE(r.failed()) << "cut at " << cut;
    // Once failed, every read returns zero values.
    EXPECT_EQ(r.ReadU64(), 0u) << "cut at " << cut;
  }
}

TrainingCheckpoint MakeCheckpoint(int64_t attempt) {
  TrainingCheckpoint c;
  c.next_attempt = attempt;
  c.accepted_updates = attempt;
  c.loss_iterations = {0, 10};
  c.loss_history = {2.31, 1.87};
  c.empty_lots = 1;
  c.nonfinite_skipped = 2;
  c.sur_accepted = 5;
  c.sur_rejected = 3;
  c.current_beta = 0.05;
  c.param_names = {"fc.weight", "fc.bias"};
  c.param_values = {Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}),
                    Tensor::FromVector({3}, {7, 8, 9})};
  c.noise_rng.state[0] = 0x1234;
  c.noise_rng.has_cached_gaussian = true;
  c.noise_rng.cached_gaussian = -0.75;
  c.uniform_sampler.order = {3, 1, 0, 2};
  c.uniform_sampler.cursor = 2;
  c.importance_sampler.weights = {1.0, 2.0, 3.0, 4.0};
  c.importance_sampler.seen = {true, false, true, false};
  c.adam.m = Tensor::FromVector({9}, std::vector<float>(9, 0.5f));
  c.adam.v = Tensor::FromVector({9}, std::vector<float>(9, 0.25f));
  c.adam.step = attempt;
  c.accountant_orders = {2, 3, 4};
  c.accountant_rdp = {0.1, 0.2, 0.3};
  c.accountant_steps = attempt;
  PrivacyEvent event;
  event.kind = PrivacyEvent::Kind::kSubsampledGaussian;
  event.noise_multiplier = 1.0;
  event.sampling_rate = 0.1;
  event.count = attempt;
  event.note = "dp-sgd step";
  c.ledger_events = {event};
  c.beta_controller.observations = 4;
  c.beta_controller.min_angle = {0.1, 0.2};
  c.beta_controller.max_angle = {1.1, 1.2};
  c.options_fingerprint = "v1|test";
  return c;
}

// A CRC-valid payload whose loss_iterations count claims more elements than
// the file holds must be rejected by the payload decoder's count check
// before it sizes the vector; without that check the load would throw
// instead of returning a Status.
TEST(ByteIoTest, HugeClaimedVectorLengthFails) {
  const std::string path = TempPath("huge_vector_claim.gdpk");
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(2), path).ok());
  const std::string saved = ReadFile(path);
  constexpr size_t kHeaderBytes = 4 + 4 + 8;  // magic, version, length
  constexpr size_t kCrcBytes = 4;
  // The payload opens with next_attempt and accepted_updates (two i64s);
  // the loss_iterations count follows.
  constexpr size_t kCountOffset = kHeaderBytes + 2 * sizeof(int64_t);
  // 2^60 elements; 2^62 elements, whose byte size wraps to zero.
  for (const uint64_t count : {uint64_t{1} << 60, uint64_t{1} << 62}) {
    std::string bytes = saved;
    ByteWriter claim;
    claim.WriteU64(count);
    bytes.replace(kCountOffset, claim.bytes().size(), claim.bytes());
    const std::string_view payload = std::string_view(bytes).substr(
        kHeaderBytes, bytes.size() - kHeaderBytes - kCrcBytes);
    ByteWriter crc;
    crc.WriteU32(Crc32(payload.data(), payload.size()));
    bytes.replace(bytes.size() - kCrcBytes, kCrcBytes, crc.bytes());
    WriteFile(path, bytes);

    const StatusOr<TrainingCheckpoint> loaded = LoadTrainingCheckpoint(path);
    ASSERT_FALSE(loaded.ok()) << "count " << count;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "count " << count << ": " << loaded.status().ToString();
  }
}

TEST(CheckpointTest, SaveLoadRoundTripIsExact) {
  const std::string dir = FreshDir("ckpt_roundtrip");
  const TrainingCheckpoint original = MakeCheckpoint(17);
  const std::string path = dir + "/" + CheckpointFileName(17);
  ASSERT_TRUE(SaveTrainingCheckpoint(original, path).ok());

  StatusOr<TrainingCheckpoint> loaded = LoadTrainingCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TrainingCheckpoint& c = loaded.value();
  EXPECT_EQ(c.next_attempt, 17);
  EXPECT_EQ(c.accepted_updates, 17);
  EXPECT_EQ(c.loss_iterations, original.loss_iterations);
  EXPECT_EQ(c.loss_history, original.loss_history);
  EXPECT_EQ(c.empty_lots, 1);
  EXPECT_EQ(c.nonfinite_skipped, 2);
  EXPECT_EQ(c.sur_accepted, 5);
  EXPECT_EQ(c.sur_rejected, 3);
  EXPECT_EQ(c.current_beta, 0.05);
  EXPECT_EQ(c.param_names, original.param_names);
  ASSERT_EQ(c.param_values.size(), 2u);
  EXPECT_EQ(c.param_values[0].shape(), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(c.param_values[1][2], 9.0f);
  EXPECT_EQ(c.noise_rng.state[0], 0x1234u);
  EXPECT_TRUE(c.noise_rng.has_cached_gaussian);
  EXPECT_EQ(c.noise_rng.cached_gaussian, -0.75);
  EXPECT_EQ(c.uniform_sampler.order, original.uniform_sampler.order);
  EXPECT_EQ(c.uniform_sampler.cursor, 2);
  EXPECT_EQ(c.importance_sampler.weights,
            original.importance_sampler.weights);
  EXPECT_EQ(c.importance_sampler.seen, original.importance_sampler.seen);
  EXPECT_EQ(c.adam.step, 17);
  EXPECT_EQ(c.adam.m.numel(), 9);
  EXPECT_EQ(c.accountant_orders, original.accountant_orders);
  EXPECT_EQ(c.accountant_rdp, original.accountant_rdp);
  EXPECT_EQ(c.accountant_steps, 17);
  ASSERT_EQ(c.ledger_events.size(), 1u);
  EXPECT_EQ(c.ledger_events[0].note, "dp-sgd step");
  EXPECT_EQ(c.ledger_events[0].count, 17);
  EXPECT_EQ(c.beta_controller.observations, 4);
  EXPECT_EQ(c.beta_controller.max_angle, original.beta_controller.max_angle);
  EXPECT_EQ(c.options_fingerprint, "v1|test");
}

TEST(CheckpointTest, EmptyLossHistoryRoundTrips) {
  // A trainer run with record_loss_every = 0 checkpoints an empty loss
  // history. Loading it reads zero-length vectors, which must not copy
  // into (or from) a null buffer; the sanitizer CI legs run this test.
  const std::string dir = FreshDir("ckpt_empty_loss");
  TrainingCheckpoint original = MakeCheckpoint(3);
  original.loss_iterations.clear();
  original.loss_history.clear();
  const std::string path = dir + "/" + CheckpointFileName(3);
  ASSERT_TRUE(SaveTrainingCheckpoint(original, path).ok());

  StatusOr<TrainingCheckpoint> loaded = LoadTrainingCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().loss_iterations.empty());
  EXPECT_TRUE(loaded.value().loss_history.empty());
  EXPECT_EQ(loaded.value().accountant_rdp, original.accountant_rdp);
}

TEST(CheckpointTest, SaveLeavesNoTempFileBehind) {
  const std::string dir = FreshDir("ckpt_no_tmp");
  const std::string path = dir + "/" + CheckpointFileName(1);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(1), path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointTest, SaveCreatesMissingDirectory) {
  const std::string dir = TempPath("ckpt_fresh_parent");
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/nested/" + CheckpointFileName(3);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(3), path).ok());
  EXPECT_TRUE(LoadTrainingCheckpoint(path).ok());
}

TEST(CheckpointTest, EveryByteFlipIsDetected) {
  const std::string dir = FreshDir("ckpt_bitflips");
  const std::string path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(2), path).ok());
  const std::string good = ReadFile(path);
  // Flip one bit at a spread of offsets covering header, payload, and
  // trailer; every corruption must be rejected without crashing.
  for (size_t offset = 0; offset < good.size();
       offset += (offset < 24 ? 1 : 13)) {
    std::string bad = good;
    bad[offset] ^= 0x08;
    WriteFile(path, bad);
    EXPECT_FALSE(LoadTrainingCheckpoint(path).ok())
        << "bit flip at offset " << offset << " not detected";
  }
  WriteFile(path, good);
  EXPECT_TRUE(LoadTrainingCheckpoint(path).ok());
}

TEST(CheckpointTest, EveryTruncationIsDetected) {
  const std::string dir = FreshDir("ckpt_truncate");
  const std::string path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(2), path).ok());
  const std::string good = ReadFile(path);
  for (size_t keep = 0; keep < good.size(); keep += 7) {
    WriteFile(path, good.substr(0, keep));
    EXPECT_FALSE(LoadTrainingCheckpoint(path).ok())
        << "truncation to " << keep << " bytes not detected";
  }
}

TEST(CheckpointTest, FindLatestGoodFallsBackPastCorruptFiles) {
  const std::string dir = FreshDir("ckpt_fallback");
  for (const int64_t attempt : {5, 10, 15}) {
    ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(attempt),
                                       dir + "/" +
                                           CheckpointFileName(attempt))
                    .ok());
  }
  // Corrupt the newest checkpoint: resume must fall back to attempt 10.
  const std::string newest = dir + "/" + CheckpointFileName(15);
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteFile(newest, bytes);

  StatusOr<FoundCheckpoint> found = FindLatestGoodCheckpoint(dir);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(found.value().checkpoint.next_attempt, 10);
  EXPECT_EQ(found.value().skipped_corrupt, 1);
}

TEST(CheckpointTest, FindLatestGoodReportsEmptyAndAllCorrupt) {
  const std::string dir = FreshDir("ckpt_empty");
  EXPECT_FALSE(FindLatestGoodCheckpoint(dir).ok());

  const std::string path = dir + "/" + CheckpointFileName(1);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(1), path).ok());
  WriteFile(path, "GDPKgarbage");
  EXPECT_FALSE(FindLatestGoodCheckpoint(dir).ok());
}

TEST(CheckpointTest, PruneKeepsNewestFiles) {
  const std::string dir = FreshDir("ckpt_prune");
  for (const int64_t attempt : {1, 2, 3, 4, 5}) {
    ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(attempt),
                                       dir + "/" +
                                           CheckpointFileName(attempt))
                    .ok());
  }
  PruneOldCheckpoints(dir, 2);
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + CheckpointFileName(3)));
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/" + CheckpointFileName(4)));
  EXPECT_TRUE(
      std::filesystem::exists(dir + "/" + CheckpointFileName(5)));
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(FaultInjectionTest, SpecParsing) {
  EXPECT_TRUE(FaultInjector::ArmFromSpec("").ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_TRUE(FaultInjector::ArmFromSpec("trainer.step@25:crash").ok());
  EXPECT_TRUE(FaultInjector::Global().armed());
  FaultInjector::Global().Disarm();
  EXPECT_FALSE(FaultInjector::ArmFromSpec("nosite").ok());
  EXPECT_FALSE(FaultInjector::ArmFromSpec("a@0:crash").ok());
  EXPECT_FALSE(FaultInjector::ArmFromSpec("a@x:crash").ok());
  EXPECT_FALSE(FaultInjector::ArmFromSpec("a@1:explode").ok());
  EXPECT_FALSE(FaultInjector::ArmFromSpec("@1:crash").ok());
}

TEST_F(FaultInjectionTest, FiresOnlyOnConfiguredHit) {
  FaultInjector& faults = FaultInjector::Global();
  faults.Arm("ckpt.write", 3, FaultInjector::Action::kBitFlip);
  EXPECT_EQ(faults.Fire("other.site"), FaultInjector::Action::kNone);
  EXPECT_EQ(faults.Fire("ckpt.write"), FaultInjector::Action::kNone);
  EXPECT_EQ(faults.Fire("ckpt.write"), FaultInjector::Action::kNone);
  EXPECT_EQ(faults.Fire("ckpt.write"), FaultInjector::Action::kBitFlip);
  // One-shot: disarmed after firing.
  EXPECT_FALSE(faults.armed());
  EXPECT_EQ(faults.Fire("ckpt.write"), FaultInjector::Action::kNone);
}

TEST_F(FaultInjectionTest, ShortWriteProducesRejectedFileWithFallback) {
  const std::string dir = FreshDir("ckpt_shortwrite");
  const std::string good_path = dir + "/" + CheckpointFileName(1);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(1), good_path).ok());

  FaultInjector::Global().Arm("ckpt.write", 1,
                              FaultInjector::Action::kShortWrite);
  const std::string torn_path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(2), torn_path).ok());

  // The torn file exists but never validates; recovery uses the previous
  // good checkpoint.
  EXPECT_TRUE(std::filesystem::exists(torn_path));
  EXPECT_FALSE(LoadTrainingCheckpoint(torn_path).ok());
  StatusOr<FoundCheckpoint> found = FindLatestGoodCheckpoint(dir);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().checkpoint.next_attempt, 1);
  EXPECT_EQ(found.value().skipped_corrupt, 1);
}

TEST_F(FaultInjectionTest, BitFlipProducesRejectedFileWithFallback) {
  const std::string dir = FreshDir("ckpt_bitflip_save");
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(1),
                                     dir + "/" + CheckpointFileName(1))
                  .ok());

  FaultInjector::Global().Arm("ckpt.write", 1,
                              FaultInjector::Action::kBitFlip);
  const std::string flipped_path = dir + "/" + CheckpointFileName(2);
  ASSERT_TRUE(SaveTrainingCheckpoint(MakeCheckpoint(2), flipped_path).ok());

  EXPECT_FALSE(LoadTrainingCheckpoint(flipped_path).ok());
  StatusOr<FoundCheckpoint> found = FindLatestGoodCheckpoint(dir);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().checkpoint.next_attempt, 1);
}

}  // namespace
}  // namespace geodp
