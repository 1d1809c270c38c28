#include "crypto/paillier.h"

#include <algorithm>
#include <span>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"

namespace deta::crypto {

namespace {

// L(x) = (x - 1) / n, defined on x ≡ 1 (mod n).
BigUint LFunction(const BigUint& x, const BigUint& n) {
  return x.Sub(BigUint(1)).DivMod(n).quotient;
}

// The batch fan-out both encryption paths share. Each element gets its own SecureRng,
// seeded from |rng| in index order before fanning out, so the modexp fan-out cannot
// perturb the randomness stream: ciphertexts are reproducible across thread counts, and
// both paths leave |rng| at the same position and draw the same r per element. Chunks of
// |grain| elements reach encrypt_chunk(ms, seeds, out) as aligned spans.
template <typename EncryptChunk>
std::vector<BigUint> EncryptEach(const std::vector<BigUint>& ms, SecureRng& rng,
                                 size_t grain, const EncryptChunk& encrypt_chunk) {
  telemetry::Span span("crypto.paillier.encrypt_batch");
  DETA_COUNTER("crypto.paillier.encrypt_ops").Add(ms.size());
  DETA_HISTOGRAM("crypto.paillier.encrypt_batch_size", ::deta::telemetry::Unit::kCount)
      .Record(static_cast<double>(ms.size()));
  std::vector<Bytes> seeds(ms.size());
  for (Bytes& seed : seeds) {
    seed = rng.NextBytes(32);
  }
  std::vector<BigUint> out(ms.size());
  parallel::ParallelFor(0, static_cast<int64_t>(ms.size()), static_cast<int64_t>(grain),
                        [&](int64_t lo, int64_t hi) {
    const size_t begin = static_cast<size_t>(lo);
    const size_t count = static_cast<size_t>(hi - lo);
    encrypt_chunk(std::span<const BigUint>(ms).subspan(begin, count),
                  std::span<const Bytes>(seeds).subspan(begin, count),
                  std::span<BigUint>(out).subspan(begin, count));
  });
  return out;
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
  return EncryptEach(ms, rng, 1,
                     [this](std::span<const BigUint> chunk, std::span<const Bytes> seeds,
                            std::span<BigUint> out) {
                       for (size_t i = 0; i < chunk.size(); ++i) {
                         SecureRng local(seeds[i]);
                         out[i] = Encrypt(chunk[i], local);
                       }
                     });
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
  // p^-1 mod q and (p^2)^-1 mod q^2 exist exactly when p != q.
  bool invertible = BigUint::InvMod(lp, pv, &key.hp_.ExposeMutable()) &&
                    BigUint::InvMod(lq, qv, &key.hq_.ExposeMutable()) &&
                    BigUint::InvMod(pv, qv, &key.p_inv_q_.ExposeMutable()) &&
                    BigUint::InvMod(p2.ExposeForCrypto(), q2.ExposeForCrypto(),
                                    &key.p2_inv_q2_.ExposeMutable());
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

size_t PaillierPrivateKey::BatchGrain() const {
  return std::max(mont_p2_->BatchLanes(), mont_q2_->BatchLanes());
}

BigUint PaillierPrivateKey::DrawR(const BigUint& n, SecureRng& rng) const {
  // The public path's draw: for 0 <= r < n, gcd(r, n) = 1 exactly when neither prime
  // divides r (r = 0 included), so this accepts and re-draws the same values.
  BigUint r;
  do {
    r = BigUint::RandomBelow(rng, n);
  } while (r.Mod(p_.ExposeForCrypto()).IsZero() || r.Mod(q_.ExposeForCrypto()).IsZero());
  return r;
}

BigUint PaillierPrivateKey::JoinEncrypt(const BigUint& m, const BigUint& n,
                                        const BigUint& rp, const BigUint& rq) const {
  // c = (1 + m*n) * r^n, computed mod p^2 and mod q^2 and joined by Garner into the one
  // residue below n^2 = p^2 * q^2 that the public path computes directly.
  const BigUint g_m = BigUint(1).Add(m.Mul(n));
  const BigUint& p2 = mont_p2_->modulus();
  const BigUint& q2 = mont_q2_->modulus();
  BigUint cp = mont_p2_->MulMod(g_m.Mod(p2), rp);
  BigUint cq = mont_q2_->MulMod(g_m.Mod(q2), rq);
  BigUint h = mont_q2_->MulMod(BigUint::SubMod(cq, cp.Mod(q2), q2),
                               p2_inv_q2_.ExposeForCrypto());
  return cp.Add(p2.Mul(h));  // cp + p^2*h < p^2 * q^2
}

BigUint PaillierPrivateKey::JoinDecrypt(const BigUint& up, const BigUint& uq) const {
  // m mod p = L_p(c^(p-1) mod p^2) * hp mod p, likewise mod q, recombined with Garner's
  // formula. L throws on a ciphertext divisible by p or q, whose power is 0.
  const BigUint& pv = p_.ExposeForCrypto();
  const BigUint& qv = q_.ExposeForCrypto();
  BigUint mp = BigUint::MulMod(LFunction(up, pv), hp_.ExposeForCrypto(), pv);
  BigUint mq = BigUint::MulMod(LFunction(uq, qv), hq_.ExposeForCrypto(), qv);
  BigUint h = BigUint::MulMod(BigUint::SubMod(mq, mp, qv), p_inv_q_.ExposeForCrypto(), qv);
  return mp.Add(pv.Mul(h));  // mp + p*h < p*q = n
}

BigUint PaillierPrivateKey::Encrypt(const BigUint& m, SecureRng& rng) const {
  const BigUint n = p_.ExposeForCrypto().Mul(q_.ExposeForCrypto());
  DETA_CHECK_MSG(m < n, "Paillier plaintext out of range");
  const BigUint r = DrawR(n, rng);
  return JoinEncrypt(m, n, mont_p2_->PowMod(r, n), mont_q2_->PowMod(r, n));
}

std::vector<BigUint> PaillierPrivateKey::EncryptBatch(const std::vector<BigUint>& ms,
                                                      SecureRng& rng) const {
  const BigUint n = p_.ExposeForCrypto().Mul(q_.ExposeForCrypto());
  // One PowModBatch per prime square per chunk: a chunk is one step of its lanes.
  return EncryptEach(ms, rng, BatchGrain(),
                     [&](std::span<const BigUint> chunk, std::span<const Bytes> seeds,
                         std::span<BigUint> out) {
                       std::vector<BigUint> rs(chunk.size());
                       for (size_t i = 0; i < chunk.size(); ++i) {
                         DETA_CHECK_MSG(chunk[i] < n, "Paillier plaintext out of range");
                         SecureRng local(seeds[i]);
                         rs[i] = DrawR(n, local);
                       }
                       std::vector<BigUint> rp = mont_p2_->PowModBatch(rs, n);
                       std::vector<BigUint> rq = mont_q2_->PowModBatch(rs, n);
                       for (size_t i = 0; i < chunk.size(); ++i) {
                         out[i] = JoinEncrypt(chunk[i], n, rp[i], rq[i]);
                       }
                     });
}

BigUint PaillierPrivateKey::Decrypt(const BigUint& c) const {
  // CRT decryption: exponentiate against the half-size moduli p^2/q^2 with the
  // half-size exponents p-1/q-1 (PowMod reduces c), then recombine.
  return JoinDecrypt(mont_p2_->PowMod(c, p_minus_1_.ExposeForCrypto()),
                     mont_q2_->PowMod(c, q_minus_1_.ExposeForCrypto()));
}

std::vector<BigUint> PaillierPrivateKey::DecryptBatch(const std::vector<BigUint>& cs) const {
  telemetry::Span span("crypto.paillier.decrypt_batch");
  DETA_COUNTER("crypto.paillier.decrypt_ops").Add(cs.size());
  DETA_HISTOGRAM("crypto.paillier.decrypt_batch_size", ::deta::telemetry::Unit::kCount)
      .Record(static_cast<double>(cs.size()));
  std::vector<BigUint> out(cs.size());
  parallel::ParallelFor(0, static_cast<int64_t>(cs.size()),
                        static_cast<int64_t>(BatchGrain()), [&](int64_t lo, int64_t hi) {
    const std::span<const BigUint> chunk =
        std::span<const BigUint>(cs).subspan(static_cast<size_t>(lo),
                                             static_cast<size_t>(hi - lo));
    std::vector<BigUint> up = mont_p2_->PowModBatch(chunk, p_minus_1_.ExposeForCrypto());
    std::vector<BigUint> uq = mont_q2_->PowModBatch(chunk, q_minus_1_.ExposeForCrypto());
    for (size_t i = 0; i < chunk.size(); ++i) {
      out[static_cast<size_t>(lo) + i] = JoinDecrypt(up[i], uq[i]);
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
  lane_offset_ = uint64_t{1} << (value_bits - 1);
  value_bound_ = int64_t{1} << (value_bits - 1);
}

std::vector<BigUint> PaillierPacker::Pack(const std::vector<int64_t>& values) const {
  size_t blocks = BlockCount(values.size());
  std::vector<BigUint> packed(blocks);
  // Packing is a pure function of |values|, so blocks parallelize freely. A lane holds
  // offset + value, below 2^lane_bits <= 2^62, so each is written straight into the
  // block's limbs as a bit field (UnpackSum reads it back the same way).
  parallel::ParallelFor(0, static_cast<int64_t>(blocks), 16, [&](int64_t lo, int64_t hi) {
    for (int64_t bi = lo; bi < hi; ++bi) {
      size_t base = static_cast<size_t>(bi) * static_cast<size_t>(lanes_);
      int count = static_cast<int>(
          std::min<size_t>(static_cast<size_t>(lanes_), values.size() - base));
      std::vector<uint64_t> limbs(
          (static_cast<size_t>(count) * static_cast<size_t>(lane_bits_) + 63) / 64);
      for (int lane = 0; lane < count; ++lane) {
        int64_t v = values[base + static_cast<size_t>(lane)];
        DETA_CHECK_MSG(v > -value_bound_ && v < value_bound_,
                       "packed value " << v << " exceeds lane bound " << value_bound_);
        // Lane 0 occupies the least-significant bits; a lane may straddle two limbs.
        const uint64_t lane_value = lane_offset_ + static_cast<uint64_t>(v);
        const size_t bit = static_cast<size_t>(lane) * static_cast<size_t>(lane_bits_);
        const size_t shift = bit % 64;
        limbs[bit / 64] |= lane_value << shift;
        if (shift + static_cast<size_t>(lane_bits_) > 64) {
          limbs[bit / 64 + 1] |= lane_value >> (64 - shift);
        }
      }
      packed[static_cast<size_t>(bi)] = BigUint::FromLimbs(std::move(limbs));
    }
  });
  return packed;
}

std::vector<int64_t> PaillierPacker::UnpackSum(const std::vector<BigUint>& plains,
                                               size_t n, int num_addends) const {
  DETA_CHECK_EQ(plains.size(), BlockCount(n));
  std::vector<int64_t> out(n);
  // A lane and the offsets summed into it are below 2^lane_bits <= 2^62, so each lane is
  // read straight from the block's limbs and its sum is one wrapping subtraction: no
  // division per lane.
  const uint64_t lane_mask = (uint64_t{1} << lane_bits_) - 1;
  const uint64_t total_offset = lane_offset_ * static_cast<uint64_t>(num_addends);
  // Unpacking writes disjoint [bi*lanes, bi*lanes+count) slices, so blocks parallelize.
  parallel::ParallelFor(0, static_cast<int64_t>(plains.size()), 16,
                        [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      size_t bi = static_cast<size_t>(i);
      const std::vector<uint64_t>& limbs = plains[bi].limbs();
      int count = static_cast<int>(std::min<size_t>(
          static_cast<size_t>(lanes_), n - bi * static_cast<size_t>(lanes_)));
      for (int lane = 0; lane < count; ++lane) {
        // Lane 0 occupies the least-significant bits; a lane may straddle two limbs.
        const size_t bit = static_cast<size_t>(lane) * static_cast<size_t>(lane_bits_);
        const size_t limb = bit / 64;
        const size_t shift = bit % 64;
        uint64_t lane_value = limb < limbs.size() ? limbs[limb] >> shift : 0;
        if (shift + static_cast<size_t>(lane_bits_) > 64 && limb + 1 < limbs.size()) {
          lane_value |= limbs[limb + 1] << (64 - shift);
        }
        out[bi * static_cast<size_t>(lanes_) + static_cast<size_t>(lane)] =
            static_cast<int64_t>((lane_value & lane_mask) - total_offset);
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

std::vector<BigUint> PaillierEncryptPacked(const PaillierPrivateKey& priv,
                                           const PaillierPacker& packer,
                                           const std::vector<int64_t>& values,
                                           SecureRng& rng) {
  return priv.EncryptBatch(packer.Pack(values), rng);
}

std::vector<int64_t> PaillierDecryptPackedSum(const PaillierPrivateKey& priv,
                                              const PaillierPacker& packer,
                                              const std::vector<BigUint>& cs, size_t n,
                                              int num_addends) {
  return packer.UnpackSum(priv.DecryptBatch(cs), n, num_addends);
}

}  // namespace deta::crypto
