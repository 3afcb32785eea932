// Bounds-checked little-endian byte encoding: the one substrate under every
// binary format in the repo (GDPT tensors, GDPC model checkpoints, GDPK
// training checkpoints). Each format keeps its own layout in its own file;
// only the primitives live here.
//
// ByteWriter appends fixed-width primitives to an in-memory buffer;
// ByteReader decodes them with explicit bounds checks, so a truncated or
// bit-flipped file turns into a failed() reader instead of undefined
// behavior. Doubles are serialized as raw IEEE-754 bytes: a round trip is
// bit-exact, which the resume-determinism guarantee depends on. Since()
// returns the bytes written or consumed from a given position, the span a
// format's CRC covers.

#ifndef GEODP_BASE_BYTE_IO_H_
#define GEODP_BASE_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace geodp {

/// Appends primitives to a growing byte buffer.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { WritePod(value); }
  void WriteU32(uint32_t value) { WritePod(value); }
  void WriteU64(uint64_t value) { WritePod(value); }
  void WriteI64(int64_t value) { WritePod(value); }
  void WriteDouble(double value) { WritePod(value); }
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }

  /// Raw bytes, no length prefix.
  void WriteBytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  /// u64 byte length, then the bytes.
  void WriteString(std::string_view value) {
    WriteU64(value.size());
    WriteBytes(value.data(), value.size());
  }

  size_t position() const { return buffer_.size(); }

  /// The bytes written since `start`; valid until the next write.
  std::string_view Since(size_t start) const {
    return std::string_view(buffer_).substr(start);
  }

  const std::string& bytes() const { return buffer_; }
  std::string TakeBytes() { return std::move(buffer_); }

 private:
  template <typename T>
  void WritePod(T value) {
    WriteBytes(&value, sizeof(T));
  }

  std::string buffer_;
};

/// Decodes a buffer it does not own (the buffer must outlive the reader).
/// Every read is bounds-checked: on underflow the reader latches failed()
/// and returns zero values, so callers can decode a whole struct and check
/// failure once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t ReadU8() { return ReadPod<uint8_t>(); }
  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }
  double ReadDouble() { return ReadPod<double>(); }
  bool ReadBool() { return ReadU8() != 0; }

  /// The next `size` bytes, viewed in place; empty once failed(). Checking
  /// the size against the buffer before anything is copied means a corrupt
  /// length cannot trigger a huge allocation.
  std::string_view ReadBytes(uint64_t size) {
    if (failed_ || size > remaining()) {
      Fail();
      return {};
    }
    const std::string_view bytes = bytes_.substr(pos_, size);
    pos_ += size;
    return bytes;
  }

  /// Reads what WriteString wrote.
  std::string ReadString() { return std::string(ReadBytes(ReadU64())); }

  size_t position() const { return pos_; }

  /// The bytes consumed since `start`.
  std::string_view Since(size_t start) const {
    return bytes_.substr(start, pos_ - start);
  }

  /// Bytes not yet consumed. A well-formed payload decodes to exactly 0.
  size_t remaining() const { return bytes_.size() - pos_; }

  /// True once any read ran past the end of the buffer or Fail() was
  /// called; all subsequent reads return empty/zero values.
  bool failed() const { return failed_; }

  /// Latches failure for a value the format rejects (a bad extent, an
  /// impossible count), so the caller's single failed() check covers it.
  void Fail() { failed_ = true; }

 private:
  template <typename T>
  T ReadPod() {
    T value{};
    const std::string_view bytes = ReadBytes(sizeof(T));
    if (!bytes.empty()) std::memcpy(&value, bytes.data(), sizeof(T));
    return value;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace geodp

#endif  // GEODP_BASE_BYTE_IO_H_
