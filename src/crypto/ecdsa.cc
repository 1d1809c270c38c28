#include "crypto/ecdsa.h"

#include "common/check.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace deta::crypto {

namespace {

// Deterministic nonce in the spirit of RFC 6979: k = HMAC(priv || digest || counter),
// reduced mod n, re-drawn when degenerate.
BigUint DeterministicNonce(const BigUint& private_key, const Bytes& digest, uint32_t counter,
                           const BigUint& n) {
  Bytes input = private_key.ToBytesPadded(32);
  input.insert(input.end(), digest.begin(), digest.end());
  AppendU32(input, counter);
  Bytes mac = HmacSha256(StringToBytes("deta-ecdsa-nonce"), input);
  return BigUint::FromBytes(mac).Mod(n);
}

}  // namespace

Bytes EcdsaSignature::Serialize() const {
  Bytes out = r.ToBytesPadded(32);
  Bytes s_bytes = s.ToBytesPadded(32);
  out.insert(out.end(), s_bytes.begin(), s_bytes.end());
  return out;
}

EcdsaSignature EcdsaSignature::Deserialize(const Bytes& data) {
  DETA_CHECK_EQ(data.size(), 64u);
  EcdsaSignature sig;
  sig.r = BigUint::FromBytes(Bytes(data.begin(), data.begin() + 32));
  sig.s = BigUint::FromBytes(Bytes(data.begin() + 32, data.end()));
  return sig;
}

EcdsaSignature EcdsaSign(const Secret<BigUint>& private_key_secret, const Bytes& message) {
  const Secp256k1& curve = Secp256k1::Instance();
  const BigUint& private_key = private_key_secret.ExposeForCrypto();
  const BigUint& n = curve.n();
  Bytes digest = Sha256Digest(message);
  BigUint z = BigUint::FromBytes(digest).Mod(n);

  for (uint32_t counter = 0;; ++counter) {
    BigUint k = DeterministicNonce(private_key, digest, counter, n);
    if (k.IsZero()) {
      continue;
    }
    EcPoint kg = curve.MulGenerator(k);
    BigUint r = kg.x.Mod(n);
    if (r.IsZero()) {
      continue;
    }
    BigUint k_inv;
    if (!BigUint::InvMod(k, n, &k_inv)) {
      continue;
    }
    // s = k^-1 (z + r * priv) mod n
    BigUint s = BigUint::MulMod(
        k_inv, BigUint::AddMod(z, BigUint::MulMod(r, private_key, n), n), n);
    if (s.IsZero()) {
      continue;
    }
    return EcdsaSignature{r, s};
  }
}

bool EcdsaVerify(const EcPoint& public_key, const Bytes& message, const EcdsaSignature& sig) {
  const Secp256k1& curve = Secp256k1::Instance();
  const BigUint& n = curve.n();
  if (sig.r.IsZero() || sig.s.IsZero() || sig.r >= n || sig.s >= n) {
    return false;
  }
  if (public_key.is_infinity || !curve.IsOnCurve(public_key)) {
    return false;
  }
  Bytes digest = Sha256Digest(message);
  BigUint z = BigUint::FromBytes(digest).Mod(n);

  BigUint s_inv;
  if (!BigUint::InvMod(sig.s, n, &s_inv)) {
    return false;
  }
  BigUint u1 = BigUint::MulMod(z, s_inv, n);
  BigUint u2 = BigUint::MulMod(sig.r, s_inv, n);
  EcPoint point = curve.MulAdd(u1, u2, public_key);
  if (point.is_infinity) {
    return false;
  }
  return point.x.Mod(n) == sig.r;
}

}  // namespace deta::crypto
