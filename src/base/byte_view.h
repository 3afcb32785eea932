// The audited home of every type pun in the codebase (geodp_lint R6).
//
// POSIX socket calls (sockaddr) need a pointer pun. The binary formats do
// not: they go through base/byte_io.h, which copies with std::memcpy, and
// so does any code that wants an object's bytes. Scattered
// reinterpret_casts make pun sites impossible to audit, so R6 bans the
// keyword everywhere except this header, and the helper below carries the
// safety argument once:
//
//   PunCast<To>(From*) — pointer pun for C APIs that traffic in
//       differently-typed pointers to the same storage (the BSD sockaddr
//       idiom). The cast itself is always safe; the *dereference* contract
//       belongs to the called C API, which is exactly the situation the
//       audit wants confined here.
//
// Adding a new reinterpret_cast to this file extends the audit surface:
// justify it in a comment the way PunCast does.

#ifndef GEODP_BASE_BYTE_VIEW_H_
#define GEODP_BASE_BYTE_VIEW_H_

#include <type_traits>

namespace geodp {

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
