// Secret<T>: a taint type for key material and other must-not-leak values.
//
// DeTA's trust argument (paper §4) is that secrets — Paillier private components,
// channel master secrets, the broker's transform material, CSPRNG states — only ever
// leave a role sealed or wiped. This wrapper puts that rule into the type system, where
// a leak is a *compile error*:
//
//   * construction is explicit: a T never silently becomes a Secret<T>, so taint is
//     always introduced deliberately at the point a value becomes secret;
//   * there is NO implicit conversion back to T: a Secret<T> cannot be passed to a
//     log stream, a telemetry label, ToHex, memcpy, a wire codec, or any other
//     T-shaped sink without an audited Expose* call that names its purpose;
//   * stream insertion is deleted outright, so `DETA_LOG(...) << secret` and
//     `std::cout << secret` fail to build even via ADL;
//   * destruction (and reassignment) wipes the previous value through
//     crypto::SecureWipe / T::Wipe, so owners need no hand-written zeroizing
//     destructors (tests/common_test.cc's SecretTest pins each wipe).
//
// The audited accessors are the complete exposure surface, and their names are what
// the interprocedural taint checker (scripts/deta_taintcheck.py) seeds on — a value
// obtained from Expose* is tainted and must reach a sanitizer sink (Seal/SecureWipe/
// AEAD internals) rather than a forbidden one (logs, telemetry, plaintext persist,
// raw transport frames):
//
//   ExposeForCrypto()  read access for key-schedule/crypto kernels (PowMod with a
//                      CRT prime, ChaCha block generation, ECDH/ECDSA scalars);
//   ExposeForSeal()    read access on the way into an AEAD seal or an authenticated
//                      channel (the value is about to become ciphertext);
//   ExposeMutable()    write access for deserialization/rekeying paths;
//   WipeNow()          explicit early erasure (ExposeForWipe in the design docs).
//
// Both const accessors return the same reference; the split exists so call sites
// document *why* the secret is exposed and so the checker can treat seal-bound
// exposures as sanitized flows. Negative-compile fixtures
// (tests/negative_compile/secret_*.cc, scripts/secret_negcompile.sh) prove the
// deleted paths actually fail to build.
#ifndef DETA_COMMON_SECRET_H_
#define DETA_COMMON_SECRET_H_

#include <array>
#include <cstddef>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "crypto/secure_wipe.h"

namespace deta {

namespace secret_internal {

template <typename T, typename = void>
struct HasWipeMethod : std::false_type {};
template <typename T>
struct HasWipeMethod<T, std::void_t<decltype(std::declval<T&>().Wipe())>>
    : std::true_type {};

template <typename T>
struct IsContiguousTrivial : std::false_type {};
template <typename E, typename A>
struct IsContiguousTrivial<std::vector<E, A>> : std::is_trivially_copyable<E> {};
template <typename C, typename Tr, typename A>
struct IsContiguousTrivial<std::basic_string<C, Tr, A>> : std::is_trivially_copyable<C> {};

// Best-effort erasure strategy per wrapped type: prefer the type's own Wipe()
// (BigUint zeroes its limbs), then raw-byte wipes for flat and contiguous storage.
// A type with none of these has heap internals this header cannot see; storing it
// in a Secret is a compile error rather than a silent non-wipe.
template <typename T>
void WipeValue(T& value) {
  if constexpr (HasWipeMethod<T>::value) {
    value.Wipe();
  } else if constexpr (std::is_trivially_copyable_v<T>) {
    crypto::SecureWipe(&value, sizeof(T));
  } else if constexpr (IsContiguousTrivial<T>::value) {
    crypto::SecureWipe(value.data(), value.size() * sizeof(*value.data()));
    value.clear();
  } else {
    static_assert(HasWipeMethod<T>::value,
                  "Secret<T> needs T::Wipe(), a trivially copyable T, or a "
                  "contiguous container of trivially copyable elements");
  }
}

}  // namespace secret_internal

template <typename T>
class Secret {
 public:
  using value_type = T;

  Secret() = default;
  explicit Secret(T value) : value_(std::move(value)) {}

  Secret(const Secret&) = default;
  Secret(Secret&& other) noexcept : value_(std::move(other.value_)) {
    // Moved-from containers may keep their buffer; leave no readable copy behind.
    other.WipeNow();
  }
  Secret& operator=(const Secret& other) {
    if (this != &other) {
      secret_internal::WipeValue(value_);
      value_ = other.value_;
    }
    return *this;
  }
  Secret& operator=(Secret&& other) noexcept {
    if (this != &other) {
      secret_internal::WipeValue(value_);
      value_ = std::move(other.value_);
      other.WipeNow();
    }
    return *this;
  }
  ~Secret() { secret_internal::WipeValue(value_); }

  // Audited exposure surface — see the header comment for when each applies.
  // lvalue-qualified: exposing a temporary Secret would hand out a dangling
  // reference *and* dodge the audit trail, so it does not compile.
  const T& ExposeForCrypto() const& { return value_; }
  const T& ExposeForSeal() const& { return value_; }
  T& ExposeMutable() & { return value_; }
  const T& ExposeForCrypto() const&& = delete;
  const T& ExposeForSeal() const&& = delete;

  // Explicit early erasure (the value stays usable as an empty/zero T).
  void WipeNow() { secret_internal::WipeValue(value_); }

  // Equality never exposes the value; tests compare snapshots/keys through this.
  // (Not constant-time for every T — use ConstantTimeEqual on exposed Bytes where
  // an adversary can time the comparison.)
  friend bool operator==(const Secret& a, const Secret& b) {
    return a.value_ == b.value_;
  }
  friend bool operator!=(const Secret& a, const Secret& b) { return !(a == b); }

  // A secret is never printable: this catches DETA_LOG/std::ostream insertion (and
  // any other stream type) at overload resolution, before a byte can escape.
  template <typename Os>
  friend Os& operator<<(Os&, const Secret&) = delete;

 private:
  T value_{};
};

}  // namespace deta

#endif  // DETA_COMMON_SECRET_H_
