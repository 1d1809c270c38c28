// Arbitrary-precision unsigned integers, from scratch (no GMP in this environment).
// 64-bit limbs, little-endian limb order, unsigned __int128 intermediates. Supports
// everything Paillier and secp256k1 need: +, -, *, divmod (Knuth algorithm D), shifts,
// modular exponentiation, modular inverse (extended Euclid), gcd (Stein's binary GCD) and
// lcm, Miller-Rabin primality, and random/prime generation from a SecureRng.
//
// The word-size kernels read and write these limbs as they are: Montgomery
// multiplication (crypto/montgomery.h), the binary GCD and secp256k1's field elements
// (crypto/ec.cc) share the one layout, so no boundary joins or splits limbs.
//
// Not constant-time; this repo's crypto is a protocol-faithful simulation substrate, not
// a hardened production TLS stack (see DESIGN.md).
#ifndef DETA_CRYPTO_BIGINT_H_
#define DETA_CRYPTO_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace deta::crypto {

class SecureRng;

struct BigUintDivResult;

class BigUint {
 public:
  BigUint() = default;
  BigUint(uint64_t value);  // NOLINT(google-explicit-constructor): numeric literals are handy.

  // Parses lowercase/uppercase hex (no 0x prefix).
  static BigUint FromHexString(const std::string& hex);
  // Builds from little-endian 64-bit limbs (trailing zero limbs are trimmed).
  static BigUint FromLimbs(std::vector<uint64_t> limbs);
  // Big-endian byte import/export.
  static BigUint FromBytes(const Bytes& be);
  Bytes ToBytes() const;            // Minimal big-endian encoding ("0" -> {0x00}).
  Bytes ToBytesPadded(size_t n) const;  // Fixed-width big-endian; checks the value fits.
  std::string ToHexString() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  size_t BitLength() const;
  bool Bit(size_t i) const;

  // Comparisons.
  int Compare(const BigUint& other) const;  // -1 / 0 / +1
  bool operator==(const BigUint& o) const { return Compare(o) == 0; }
  bool operator!=(const BigUint& o) const { return Compare(o) != 0; }
  bool operator<(const BigUint& o) const { return Compare(o) < 0; }
  bool operator<=(const BigUint& o) const { return Compare(o) <= 0; }
  bool operator>(const BigUint& o) const { return Compare(o) > 0; }
  bool operator>=(const BigUint& o) const { return Compare(o) >= 0; }

  // Arithmetic. Sub requires *this >= other.
  BigUint Add(const BigUint& other) const;
  BigUint Sub(const BigUint& other) const;
  BigUint Mul(const BigUint& other) const;
  // Quotient and remainder; divisor must be nonzero.
  using DivResult = BigUintDivResult;
  DivResult DivMod(const BigUint& divisor) const;
  BigUint Mod(const BigUint& m) const;

  BigUint ShiftLeft(size_t bits) const;
  BigUint ShiftRight(size_t bits) const;

  // Modular arithmetic. All operands are expected reduced mod m where noted.
  static BigUint AddMod(const BigUint& a, const BigUint& b, const BigUint& m);
  static BigUint SubMod(const BigUint& a, const BigUint& b, const BigUint& m);
  static BigUint MulMod(const BigUint& a, const BigUint& b, const BigUint& m);
  // Montgomery fixed-window exponentiation (crypto/montgomery.h). |m| must be odd, as
  // REDC requires gcd(m, 2^64) = 1; an even modulus fails a DETA_CHECK.
  static BigUint PowMod(const BigUint& base, const BigUint& exp, const BigUint& m);
  // Multiplicative inverse of a mod m; returns false if gcd(a, m) != 1.
  static bool InvMod(const BigUint& a, const BigUint& m, BigUint* out);

  // Stein's binary GCD on 64-bit limbs: subtract and shift, never divide.
  // Gcd(0, x) = Gcd(x, 0) = x.
  static BigUint Gcd(const BigUint& a, const BigUint& b);

  // Uniform random integer in [0, bound).
  static BigUint RandomBelow(SecureRng& rng, const BigUint& bound);
  // Random integer with exactly |bits| bits (msb set).
  static BigUint RandomBits(SecureRng& rng, size_t bits);
  // Miller-Rabin with |rounds| random witnesses.
  static bool IsProbablePrime(const BigUint& n, SecureRng& rng, int rounds = 20);
  // Random probable prime with exactly |bits| bits.
  static BigUint RandomPrime(SecureRng& rng, size_t bits);

  // Low 64 bits (for small values / tests).
  uint64_t ToU64() const;

  // Zeroes the limb storage through a compiler barrier and resets the value to 0.
  // Called by destructors of types holding secret values (Paillier primes, ECDH
  // private scalars, auth tokens) so key material does not linger in freed heap pages.
  void Wipe();

  // Little-endian 64-bit limbs with no trailing zero limb; empty means zero.
  const std::vector<uint64_t>& limbs() const { return limbs_; }

 private:
  void Trim();

  std::vector<uint64_t> limbs_;
};

struct BigUintDivResult {
  BigUint quotient;
  BigUint remainder;
};

inline BigUint BigUint::Mod(const BigUint& m) const { return DivMod(m).remainder; }

// Convenience operators.
inline BigUint operator+(const BigUint& a, const BigUint& b) { return a.Add(b); }
inline BigUint operator-(const BigUint& a, const BigUint& b) { return a.Sub(b); }
inline BigUint operator*(const BigUint& a, const BigUint& b) { return a.Mul(b); }
inline BigUint operator%(const BigUint& a, const BigUint& b) { return a.Mod(b); }
inline BigUint operator/(const BigUint& a, const BigUint& b) { return a.DivMod(b).quotient; }

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_BIGINT_H_
