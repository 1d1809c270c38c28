// secp256k1 elliptic-curve group: y^2 = x^3 + 7 over F_p.
//
// Backs the two-phase authentication protocol of §4.3: the attestation proxy provisions an
// EC key as the aggregator trust token (the paper uses ECDSA prime251v1; we use secp256k1,
// identical protocol shape), parties verify aggregators by ECDSA challenge/response, and
// secure channels derive their keys from ECDH.
//
// The point arithmetic runs on fixed-width types (ec.cc): 4x64-bit field elements with
// the special reduction for p = 2^256 - 2^32 - 977, Jacobian coordinates with one field
// inversion per scalar multiplication, 4-bit fixed windows, and a generator table built
// once behind Instance(). Points and scalars cross the API as BigUint, so encodings,
// signatures and ECDH secrets are byte-identical to the textbook affine formulas.
#ifndef DETA_CRYPTO_EC_H_
#define DETA_CRYPTO_EC_H_

#include <memory>
#include <optional>
#include <utility>

#include "common/secret.h"
#include "crypto/bigint.h"
#include "crypto/chacha20.h"

namespace deta::crypto {

// Affine point; infinity is represented by is_infinity.
struct EcPoint {
  BigUint x;
  BigUint y;
  bool is_infinity = true;

  bool operator==(const EcPoint& other) const;
};

// The secp256k1 group with scalar/point arithmetic. Immutable after construction; all
// methods const. Scalars k >= n act as k mod n (every point has order n or 1). Points
// handed to Mul/MulAdd must be on the curve (see IsOnCurve).
class Secp256k1 {
 public:
  static const Secp256k1& Instance();
  ~Secp256k1();

  const BigUint& p() const { return p_; }       // field prime
  const BigUint& n() const { return order_; }   // group order
  const EcPoint& generator() const { return g_; }

  // On the curve with canonical coordinates (x, y < p), or infinity.
  bool IsOnCurve(const EcPoint& pt) const;
  // k * pt (variable base, 4-bit fixed window).
  EcPoint Mul(const BigUint& k, const EcPoint& pt) const;
  // k * G from the precomputed generator table.
  EcPoint MulGenerator(const BigUint& k) const;
  // u1 * G + u2 * q with shared doublings (Shamir's trick), for ECDSA verification.
  EcPoint MulAdd(const BigUint& u1, const BigUint& u2, const EcPoint& q) const;

  // 65-byte uncompressed SEC1 encoding (0x04 || x || y); infinity -> single 0x00 byte.
  Bytes Encode(const EcPoint& pt) const;
  // Inverse of Encode; rejects off-curve points and coordinates >= p (SEC 1 §2.3.4).
  std::optional<EcPoint> Decode(const Bytes& data) const;

 private:
  Secp256k1();

  struct GeneratorTable;  // j * 16^w * G in affine form, defined in ec.cc

  BigUint p_;
  BigUint order_;
  EcPoint g_;
  std::unique_ptr<const GeneratorTable> table_;
};

// Key pair on secp256k1. The scalar is a Secret: signing/ECDH take it wrapped, and it
// wipes itself on destruction.
struct EcKeyPair {
  EcKeyPair() = default;
  EcKeyPair(BigUint priv, EcPoint pub)
      : private_key(std::move(priv)), public_key(std::move(pub)) {}

  Secret<BigUint> private_key;  // scalar in [1, n)
  EcPoint public_key;           // private_key * G
};

EcKeyPair GenerateEcKey(SecureRng& rng);

// ECDH: shared secret = SHA-256 of the x-coordinate of (priv * peer_pub).
Bytes EcdhSharedSecret(const Secret<BigUint>& private_key, const EcPoint& peer_public);

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_EC_H_
