#include "persist/paillier_key_codec.h"

#include "common/check.h"
#include "crypto/secure_wipe.h"
#include "net/codec.h"

namespace deta::persist {

namespace {

constexpr uint32_t kVersion = 3;  // n, p, q

using crypto::BigUint;

// BigUint does not wipe itself, so the wire copy of p or q is wiped here once its limbs
// hold the value.
BigUint ReadBigUint(net::Reader& r) {
  Bytes be = r.ReadBytes();
  BigUint v = BigUint::FromBytes(be);
  crypto::SecureWipe(be);
  return v;
}

}  // namespace

Bytes SerializePaillierKey(const crypto::PaillierKeyPair& kp) {
  Bytes n = kp.pub.n().ToBytes();
  // ExposeForSeal: the serialized blob travels only inside sealed snapshot sections
  // and over the broker's authenticated channel (deta_taintcheck tracks this flow).
  Bytes p = kp.priv.p().ExposeForSeal().ToBytes();
  Bytes q = kp.priv.q().ExposeForSeal().ToBytes();
  net::Writer w;
  // Reserved up front: a buffer that grew after p was written would free a copy of it.
  w.Reserve(sizeof(uint32_t) + 3 * sizeof(uint64_t) + n.size() + p.size() + q.size());
  w.WriteU32(kVersion);
  w.WriteBytes(n);
  w.WriteBytes(p);
  w.WriteBytes(q);
  crypto::SecureWipe(p);
  crypto::SecureWipe(q);
  return w.Take();
}

std::optional<crypto::PaillierKeyPair> ParsePaillierKey(const Bytes& blob) {
  try {
    net::Reader r(blob);
    if (r.ReadU32() != kVersion) {
      return std::nullopt;
    }
    crypto::PaillierPublicKey pub(ReadBigUint(r));
    Secret<BigUint> p(ReadBigUint(r));
    Secret<BigUint> q(ReadBigUint(r));
    // FromPrimes checks p * q == n, so a corrupted prime cannot produce a key that
    // silently decrypts to garbage.
    std::optional<crypto::PaillierPrivateKey> priv =
        crypto::PaillierPrivateKey::FromPrimes(pub, std::move(p), std::move(q));
    if (!priv.has_value()) {
      return std::nullopt;
    }
    return crypto::PaillierKeyPair{std::move(pub), std::move(*priv)};
  } catch (const CheckFailure&) {
    return std::nullopt;  // truncated / malformed, or an even or trivial modulus
  }
}

}  // namespace deta::persist
