#include "persist/paillier_key_codec.h"

#include "common/check.h"
#include "net/codec.h"

namespace deta::persist {

namespace {

constexpr uint32_t kVersionCrt = 2;  // lambda/mu + CRT primes p, q

using crypto::BigUint;

void WriteBigUint(net::Writer& w, const BigUint& v) { w.WriteBytes(v.ToBytes()); }

BigUint ReadBigUint(net::Reader& r) { return BigUint::FromBytes(r.ReadBytes()); }

}  // namespace

Bytes SerializePaillierKey(const crypto::PaillierKeyPair& kp) {
  DETA_CHECK_MSG(kp.priv.HasCrt(), "Paillier key lacks its CRT extension");
  net::Writer w;
  w.WriteU32(kVersionCrt);
  WriteBigUint(w, kp.pub.n);
  // ExposeForSeal: the serialized blob travels only inside sealed snapshot sections
  // and over the broker's authenticated channel (deta_taintcheck tracks this flow).
  WriteBigUint(w, kp.priv.lambda.ExposeForSeal());
  WriteBigUint(w, kp.priv.mu.ExposeForSeal());
  WriteBigUint(w, kp.priv.p.ExposeForSeal());
  WriteBigUint(w, kp.priv.q.ExposeForSeal());
  return w.Take();
}

std::optional<crypto::PaillierKeyPair> ParsePaillierKey(const Bytes& blob) {
  try {
    net::Reader r(blob);
    if (r.ReadU32() != kVersionCrt) {
      return std::nullopt;
    }
    crypto::PaillierKeyPair kp;
    kp.pub.n = ReadBigUint(r);
    if (kp.pub.n.IsZero()) {
      return std::nullopt;
    }
    kp.pub.n_squared = kp.pub.n.Mul(kp.pub.n);
    kp.pub.g = kp.pub.n.Add(BigUint(1));
    kp.pub.PrecomputeCache();
    kp.priv.lambda = deta::Secret<BigUint>(ReadBigUint(r));
    kp.priv.mu = deta::Secret<BigUint>(ReadBigUint(r));
    kp.priv.p = deta::Secret<BigUint>(ReadBigUint(r));
    kp.priv.q = deta::Secret<BigUint>(ReadBigUint(r));
    // PrecomputeCrt validates p*q == n, so a corrupted prime cannot produce a key that
    // silently decrypts to garbage.
    if (!kp.priv.PrecomputeCrt(kp.pub)) {
      return std::nullopt;
    }
    return kp;
  } catch (const CheckFailure&) {
    return std::nullopt;  // truncated / malformed
  }
}

}  // namespace deta::persist
