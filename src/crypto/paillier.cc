#include "crypto/paillier.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace deta::crypto {

namespace {

// L(x) = (x - 1) / n, defined on x ≡ 1 (mod n).
BigUint LFunction(const BigUint& x, const BigUint& n) {
  return x.Sub(BigUint(1)).DivMod(n).quotient;
}

}  // namespace

PaillierPublicKey::PaillierPublicKey(BigUint n)
    : n_(std::move(n)), mont_n2_(std::make_shared<const MontgomeryContext>(n_.Mul(n_))) {}

BigUint PaillierPublicKey::Encrypt(const BigUint& m, SecureRng& rng) const {
  DETA_CHECK_MSG(m < n_, "Paillier plaintext out of range");
  // r uniform in [1, n) with gcd(r, n) = 1 (holds with overwhelming probability for a
  // well-formed key; re-draw otherwise).
  BigUint r;
  do {
    r = BigUint::RandomBelow(rng, n_);
  } while (r.IsZero() || BigUint::Gcd(r, n_) != BigUint(1));
  // c = g^m * r^n mod n^2. With g = n + 1, g^m = 1 + m*n (mod n^2), a big speedup;
  // m < n makes 1 + m*n < n^2 already reduced.
  BigUint g_m = BigUint(1).Add(m.Mul(n_));
  return mont_n2_->MulMod(g_m, mont_n2_->PowMod(r, n_));
}

std::vector<BigUint> PaillierPublicKey::EncryptBatch(const std::vector<BigUint>& ms,
                                                     SecureRng& rng) const {
  // Each element gets its own SecureRng forked from |rng| in index order; the modexp
  // fan-out below then cannot perturb the randomness stream, keeping ciphertexts
  // reproducible across thread counts.
  telemetry::Span span("crypto.paillier.encrypt_batch");
  DETA_COUNTER("crypto.paillier.encrypt_ops").Add(ms.size());
  DETA_HISTOGRAM("crypto.paillier.encrypt_batch_size", ::deta::telemetry::Unit::kCount)
      .Record(static_cast<double>(ms.size()));
  std::vector<Bytes> seeds(ms.size());
  for (Bytes& seed : seeds) {
    seed = rng.NextBytes(32);
  }
  std::vector<BigUint> out(ms.size());
  parallel::ParallelFor(0, static_cast<int64_t>(ms.size()), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      SecureRng local(seeds[static_cast<size_t>(i)]);
      out[static_cast<size_t>(i)] = Encrypt(ms[static_cast<size_t>(i)], local);
    }
  });
  return out;
}

BigUint PaillierPublicKey::AddCiphertexts(const BigUint& c1, const BigUint& c2) const {
  return mont_n2_->MulMod(c1, c2);
}

std::optional<PaillierPrivateKey> PaillierPrivateKey::FromPrimes(
    const PaillierPublicKey& pub, Secret<BigUint> p, Secret<BigUint> q) {
  // All derivation happens on exposed references inside this kernel, and every derived
  // value lands in a Secret member. BigUint does not wipe itself on destruction, so the
  // locals below that determine the key (the powers and their L values) are wiped by
  // hand; the temporaries inside PowMod, LFunction and InvMod are freed unwiped.
  const BigUint& pv = p.ExposeForCrypto();
  const BigUint& qv = q.ExposeForCrypto();
  if (pv.Mul(qv) != pub.n()) {
    return std::nullopt;
  }
  PaillierPrivateKey key;
  key.p_minus_1_ = Secret<BigUint>(pv.Sub(BigUint(1)));
  key.q_minus_1_ = Secret<BigUint>(qv.Sub(BigUint(1)));
  // The contexts keep (and wipe) their own copies of p^2 and q^2.
  Secret<BigUint> p2(pv.Mul(pv));
  Secret<BigUint> q2(qv.Mul(qv));
  key.mont_p2_ = std::make_shared<const MontgomeryContext>(p2.ExposeForCrypto());
  key.mont_q2_ = std::make_shared<const MontgomeryContext>(q2.ExposeForCrypto());
  // hp = L_p(g^(p-1) mod p^2)^-1 mod p (and symmetrically hq): the per-prime analogue
  // of mu, precomputed so decryption costs one inverse-free multiply per prime.
  const BigUint g = pub.n().Add(BigUint(1));
  BigUint gp = key.mont_p2_->PowMod(g.Mod(key.mont_p2_->modulus()),
                                    key.p_minus_1_.ExposeForCrypto());
  BigUint gq = key.mont_q2_->PowMod(g.Mod(key.mont_q2_->modulus()),
                                    key.q_minus_1_.ExposeForCrypto());
  BigUint lp = LFunction(gp, pv);
  BigUint lq = LFunction(gq, qv);
  // p^-1 mod q exists exactly when p != q.
  bool invertible = BigUint::InvMod(lp, pv, &key.hp_.ExposeMutable()) &&
                    BigUint::InvMod(lq, qv, &key.hq_.ExposeMutable()) &&
                    BigUint::InvMod(pv, qv, &key.p_inv_q_.ExposeMutable());
  for (BigUint* local : {&gp, &gq, &lp, &lq}) {
    local->Wipe();
  }
  if (!invertible) {
    return std::nullopt;
  }
  key.p_ = std::move(p);
  key.q_ = std::move(q);
  return key;
}

BigUint PaillierPrivateKey::Decrypt(const BigUint& c) const {
  // CRT decryption: exponentiate against the half-size moduli p^2/q^2 with the
  // half-size exponents p-1/q-1, then recombine with Garner's formula.
  const BigUint& pv = p_.ExposeForCrypto();
  const BigUint& qv = q_.ExposeForCrypto();
  BigUint mp = BigUint::MulMod(
      LFunction(mont_p2_->PowMod(c.Mod(mont_p2_->modulus()), p_minus_1_.ExposeForCrypto()),
                pv),
      hp_.ExposeForCrypto(), pv);
  BigUint mq = BigUint::MulMod(
      LFunction(mont_q2_->PowMod(c.Mod(mont_q2_->modulus()), q_minus_1_.ExposeForCrypto()),
                qv),
      hq_.ExposeForCrypto(), qv);
  BigUint h = BigUint::MulMod(BigUint::SubMod(mq, mp, qv), p_inv_q_.ExposeForCrypto(), qv);
  return mp.Add(pv.Mul(h));  // mp + p*h < p*q = n
}

std::vector<BigUint> PaillierPrivateKey::DecryptBatch(const std::vector<BigUint>& cs) const {
  telemetry::Span span("crypto.paillier.decrypt_batch");
  DETA_COUNTER("crypto.paillier.decrypt_ops").Add(cs.size());
  DETA_HISTOGRAM("crypto.paillier.decrypt_batch_size", ::deta::telemetry::Unit::kCount)
      .Record(static_cast<double>(cs.size()));
  std::vector<BigUint> out(cs.size());
  parallel::ParallelFor(0, static_cast<int64_t>(cs.size()), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[static_cast<size_t>(i)] = Decrypt(cs[static_cast<size_t>(i)]);
    }
  });
  return out;
}

PaillierKeyPair GeneratePaillierKey(SecureRng& rng, size_t modulus_bits) {
  DETA_CHECK_GE(modulus_bits, 64u);
  for (;;) {
    BigUint p = BigUint::RandomPrime(rng, modulus_bits / 2);
    BigUint q = BigUint::RandomPrime(rng, modulus_bits / 2);
    if (p == q) {
      continue;
    }
    // RandomBits forces the top bit, so p and q have equal length. Distinct primes of
    // equal length make gcd(n, (p-1)(q-1)) = 1, so every such pair is a valid key.
    PaillierPublicKey pub(p.Mul(q));
    std::optional<PaillierPrivateKey> priv = PaillierPrivateKey::FromPrimes(
        pub, Secret<BigUint>(std::move(p)), Secret<BigUint>(std::move(q)));
    DETA_CHECK(priv.has_value());
    return PaillierKeyPair{std::move(pub), std::move(*priv)};
  }
}

PaillierPacker::PaillierPacker(const PaillierPublicKey& pub, int max_addends,
                               int lane_bits)
    : lane_bits_(lane_bits) {
  DETA_CHECK_GE(lane_bits, 8);
  DETA_CHECK_LE(lane_bits, 62);
  // Reserve one lane-width of headroom below the modulus top.
  int usable_bits = static_cast<int>(pub.n().BitLength()) - lane_bits - 8;
  DETA_CHECK_MSG(usable_bits >= lane_bits, "Paillier modulus too small for packing");
  lanes_ = usable_bits / lane_bits;
  // Per-lane layout: encoded value = offset + value, with value in (-offset, offset).
  // The homomorphic sum of up to max_addends lane values must not carry into the next
  // lane: max_addends * 2^(value_bits) <= 2^lane_bits, so value_bits cedes
  // ceil(log2(max_addends)) headroom bits.
  DETA_CHECK_GE(max_addends, 1);
  int headroom_bits = 0;
  while ((1 << headroom_bits) < max_addends) {
    ++headroom_bits;
  }
  int value_bits = lane_bits - headroom_bits;
  DETA_CHECK_MSG(value_bits >= 2, "lane too narrow for " << max_addends << " addends");
  lane_offset_ = BigUint(1).ShiftLeft(static_cast<size_t>(value_bits - 1));
  value_bound_ = int64_t{1} << (value_bits - 1);
}

std::vector<BigUint> PaillierPacker::Pack(const std::vector<int64_t>& values) const {
  size_t blocks = BlockCount(values.size());
  std::vector<BigUint> packed(blocks);
  // Packing is a pure function of |values|, so blocks parallelize freely.
  parallel::ParallelFor(0, static_cast<int64_t>(blocks), 16, [&](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      size_t base = static_cast<size_t>(bi) * static_cast<size_t>(lanes_);
      int count = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(lanes_), values.size() - base));
      BigUint block;
      // Lane 0 occupies the least-significant bits.
      for (int lane = count - 1; lane >= 0; --lane) {
        int64_t v = values[base + static_cast<size_t>(lane)];
        DETA_CHECK_MSG(v > -value_bound_ && v < value_bound_,
                       "packed value " << v << " exceeds lane bound " << value_bound_);
        BigUint lane_value;
        if (v >= 0) {
          lane_value = lane_offset_.Add(BigUint(static_cast<uint64_t>(v)));
        } else {
          lane_value = lane_offset_.Sub(BigUint(static_cast<uint64_t>(-v)));
        }
        block = block.ShiftLeft(static_cast<size_t>(lane_bits_)).Add(lane_value);
      }
      packed[static_cast<size_t>(bi)] = std::move(block);
    }
  });
  return packed;
}

std::vector<int64_t> PaillierPacker::UnpackSum(const std::vector<BigUint>& plains,
                                               size_t n, int num_addends) const {
  DETA_CHECK_EQ(plains.size(), BlockCount(n));
  std::vector<int64_t> out(n);
  BigUint lane_modulus = BigUint(1).ShiftLeft(static_cast<size_t>(lane_bits_));
  BigUint total_offset = lane_offset_.Mul(BigUint(static_cast<uint64_t>(num_addends)));
  // Unpacking writes disjoint [bi*lanes, bi*lanes+count) slices, so blocks parallelize.
  parallel::ParallelFor(0, static_cast<int64_t>(plains.size()), 16,
                        [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      size_t bi = static_cast<size_t>(i);
      BigUint packed = plains[bi];
      int count = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(lanes_), n - bi * static_cast<size_t>(lanes_)));
      for (int lane = 0; lane < count; ++lane) {
        BigUint lane_value = packed.Mod(lane_modulus);
        packed = packed.ShiftRight(static_cast<size_t>(lane_bits_));
        int64_t v;
        if (lane_value >= total_offset) {
          v = static_cast<int64_t>(lane_value.Sub(total_offset).ToU64());
        } else {
          v = -static_cast<int64_t>(total_offset.Sub(lane_value).ToU64());
        }
        out[bi * static_cast<size_t>(lanes_) + static_cast<size_t>(lane)] = v;
      }
    }
  });
  return out;
}

std::vector<BigUint> PaillierEncryptPacked(const PaillierPublicKey& pub,
                                           const PaillierPacker& packer,
                                           const std::vector<int64_t>& values,
                                           SecureRng& rng) {
  return pub.EncryptBatch(packer.Pack(values), rng);
}

std::vector<int64_t> PaillierDecryptPackedSum(const PaillierPrivateKey& priv,
                                              const PaillierPacker& packer,
                                              const std::vector<BigUint>& cs, size_t n,
                                              int num_addends) {
  return packer.UnpackSum(priv.DecryptBatch(cs), n, num_addends);
}

}  // namespace deta::crypto
