// Bounds-checked binary encoding for checkpoint payloads.
//
// ByteWriter appends fixed-width little-endian primitives to an in-memory
// buffer; ByteReader decodes them with explicit bounds checks, so a
// truncated or bit-flipped payload turns into a failed() reader instead of
// undefined behavior. Doubles and floats are serialized as raw IEEE-754
// bytes: a round-trip is bit-exact, which the resume-determinism guarantee
// depends on.

#ifndef GEODP_CKPT_BYTE_IO_H_
#define GEODP_CKPT_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace geodp {

/// Appends primitives to a growing byte buffer.
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { Append(&value, sizeof(value)); }
  void WriteU32(uint32_t value) { Append(&value, sizeof(value)); }
  void WriteU64(uint64_t value) { Append(&value, sizeof(value)); }
  void WriteI64(int64_t value) { Append(&value, sizeof(value)); }
  void WriteDouble(double value) { Append(&value, sizeof(value)); }
  void WriteBool(bool value) { WriteU8(value ? 1 : 0); }

  void WriteString(const std::string& value) {
    WriteU64(value.size());
    Append(value.data(), value.size());
  }

  void WriteI64Vector(const std::vector<int64_t>& values) {
    WriteU64(values.size());
    Append(values.data(), values.size() * sizeof(int64_t));
  }

  void WriteDoubleVector(const std::vector<double>& values) {
    WriteU64(values.size());
    Append(values.data(), values.size() * sizeof(double));
  }

  /// Shape + raw float32 data (payload-internal format; the enclosing
  /// checkpoint's CRC covers it, so no per-tensor trailer).
  void WriteTensor(const Tensor& tensor) {
    WriteI64Vector(tensor.shape());
    Append(tensor.data(),
           static_cast<size_t>(tensor.numel()) * sizeof(float));
  }

  const std::string& bytes() const { return buffer_; }
  std::string TakeBytes() { return std::move(buffer_); }

 private:
  void Append(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  std::string buffer_;
};

/// Decodes a buffer written by ByteWriter. Every read is bounds-checked:
/// on underflow the reader latches failed() and returns zero values, so
/// callers can decode a whole struct and check failure once at the end.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(const std::string& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  uint8_t ReadU8() { return ReadPod<uint8_t>(); }
  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }
  double ReadDouble() { return ReadPod<double>(); }
  bool ReadBool() { return ReadU8() != 0; }

  std::string ReadString() {
    const uint64_t length = ReadU64();
    if (!HasRemaining(length)) return {};
    std::string value(data_ + pos_, static_cast<size_t>(length));
    pos_ += static_cast<size_t>(length);
    return value;
  }

  std::vector<int64_t> ReadI64Vector() {
    return ReadPodVector<int64_t>();
  }

  std::vector<double> ReadDoubleVector() {
    return ReadPodVector<double>();
  }

  Tensor ReadTensor() {
    const std::vector<int64_t> shape = ReadI64Vector();
    // A default-constructed Tensor serializes as an empty shape with no
    // data (numel 0), not as a rank-0 scalar.
    if (shape.empty()) return Tensor();
    int64_t numel = 1;
    for (const int64_t extent : shape) {
      if (extent <= 0 || numel > (int64_t{1} << 34) / extent) {
        Fail();
        return Tensor();
      }
      numel *= extent;
    }
    const size_t bytes = static_cast<size_t>(numel) * sizeof(float);
    if (failed_ || !HasRemaining(bytes)) return Tensor();
    std::vector<float> data(static_cast<size_t>(numel));
    std::memcpy(data.data(), data_ + pos_, bytes);
    pos_ += bytes;
    return Tensor::FromVector(shape, std::move(data));
  }

  /// True once any read ran past the end of the buffer (or hit a malformed
  /// length); all subsequent reads return empty/zero values.
  bool failed() const { return failed_; }

  /// Bytes not yet consumed. A well-formed payload decodes to exactly 0.
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T ReadPod() {
    T value{};
    if (!HasRemaining(sizeof(T))) return value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> ReadPodVector() {
    const uint64_t count = ReadU64();
    if (failed_ || count > size_ / sizeof(T) ||
        !HasRemaining(count * sizeof(T))) {
      Fail();
      return {};
    }
    std::vector<T> values(static_cast<size_t>(count));
    // An empty vector's data() may be null, and memcpy's pointers must
    // not be, even for zero bytes.
    if (count > 0) {
      std::memcpy(values.data(), data_ + pos_,
                  static_cast<size_t>(count) * sizeof(T));
    }
    pos_ += static_cast<size_t>(count) * sizeof(T);
    return values;
  }

  bool HasRemaining(uint64_t bytes) {
    if (failed_ || bytes > size_ - pos_) {
      Fail();
      return false;
    }
    return true;
  }

  void Fail() { failed_ = true; }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace geodp

#endif  // GEODP_CKPT_BYTE_IO_H_
