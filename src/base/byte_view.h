// The audited home of every type pun in the codebase (geodp_lint R6).
//
// Viewing trivially-copyable objects as bytes and back needs a pun, and so
// do POSIX socket calls (sockaddr). The binary formats avoid both: they go
// through base/byte_io.h, which copies with std::memcpy. Scattered
// reinterpret_casts make pun sites impossible to audit, so R6 bans the
// keyword everywhere except this header, and the helpers below carry the
// safety argument once:
//
//   AsBytes / AsWritableBytes — object (or element range) as a byte span;
//       static_asserts that the source type is trivially copyable, so the
//       byte view is its value representation and reading it is defined.
//   FromBytes<T>              — reassemble a T from a byte span via
//       std::memcpy (the blessed way to type-pun in C++17), length-checked
//       with GEODP_CHECK.
//   PunCast<To>(From*)        — pointer pun for C APIs that traffic in
//       differently-typed pointers to the same storage (the BSD sockaddr
//       idiom). The cast itself is always safe; the *dereference* contract
//       belongs to the called C API, which is exactly the situation the
//       audit wants confined here.
//
// Adding a new reinterpret_cast to this file extends the audit surface:
// justify it in a comment the way the helpers above do.

#ifndef GEODP_BASE_BYTE_VIEW_H_
#define GEODP_BASE_BYTE_VIEW_H_

#include <cstddef>
#include <cstring>
#include <type_traits>

#include "base/check.h"

namespace geodp {

/// A non-owning view of raw bytes: {data, size} with no container
/// semantics. Deliberately minimal — it exists so codec code can pass
/// byte ranges around without char* arithmetic at every call site.
struct ByteSpan {
  const char* data = nullptr;
  size_t size = 0;
};

struct MutableByteSpan {
  char* data = nullptr;
  size_t size = 0;
};

/// Byte view of one trivially-copyable object.
template <typename T>
ByteSpan AsBytes(const T& value) {
  static_assert(std::is_trivially_copyable<T>::value,
                "AsBytes requires a trivially copyable type: the byte view "
                "of anything else is not its value representation");
  return {reinterpret_cast<const char*>(&value), sizeof(T)};
}

/// Byte view of `count` contiguous trivially-copyable elements.
template <typename T>
ByteSpan AsBytes(const T* first, size_t count) {
  static_assert(std::is_trivially_copyable<T>::value,
                "AsBytes requires a trivially copyable element type");
  return {reinterpret_cast<const char*>(first), count * sizeof(T)};
}

template <typename T>
MutableByteSpan AsWritableBytes(T& value) {
  static_assert(std::is_trivially_copyable<T>::value,
                "AsWritableBytes requires a trivially copyable type: "
                "writing the bytes of anything else is undefined");
  return {reinterpret_cast<char*>(&value), sizeof(T)};
}

template <typename T>
MutableByteSpan AsWritableBytes(T* first, size_t count) {
  static_assert(std::is_trivially_copyable<T>::value,
                "AsWritableBytes requires a trivially copyable element type");
  return {reinterpret_cast<char*>(first), count * sizeof(T)};
}

/// Reassembles a T from exactly sizeof(T) bytes. memcpy-based, so the
/// result is well-defined for any bit pattern that is a valid T value.
template <typename T>
T FromBytes(ByteSpan bytes) {
  static_assert(std::is_trivially_copyable<T>::value,
                "FromBytes requires a trivially copyable type");
  GEODP_CHECK_EQ(bytes.size, sizeof(T));
  T value;
  std::memcpy(&value, bytes.data, sizeof(T));
  return value;
}

/// Pointer pun for C APIs (sockaddr et al.). Both sides must be object
/// pointer types; constness must not be casted away.
template <typename To, typename From>
To* PunCast(From* from) {
  static_assert(std::is_object<To>::value && std::is_object<From>::value,
                "PunCast converts between object pointer types only");
  static_assert(std::is_const<To>::value || !std::is_const<From>::value,
                "PunCast must not cast away constness");
  return reinterpret_cast<To*>(from);
}

}  // namespace geodp

#endif  // GEODP_BASE_BYTE_VIEW_H_
