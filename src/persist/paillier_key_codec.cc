#include "persist/paillier_key_codec.h"

#include "common/check.h"
#include "net/codec.h"

namespace deta::persist {

namespace {

constexpr uint32_t kVersion = 3;  // n, p, q

using crypto::BigUint;

void WriteBigUint(net::Writer& w, const BigUint& v) { w.WriteBytes(v.ToBytes()); }

BigUint ReadBigUint(net::Reader& r) { return BigUint::FromBytes(r.ReadBytes()); }

}  // namespace

Bytes SerializePaillierKey(const crypto::PaillierKeyPair& kp) {
  net::Writer w;
  w.WriteU32(kVersion);
  WriteBigUint(w, kp.pub.n());
  // ExposeForSeal: the serialized blob travels only inside sealed snapshot sections
  // and over the broker's authenticated channel (deta_taintcheck tracks this flow).
  WriteBigUint(w, kp.priv.p().ExposeForSeal());
  WriteBigUint(w, kp.priv.q().ExposeForSeal());
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
