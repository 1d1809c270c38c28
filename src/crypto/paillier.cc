#include "crypto/paillier.h"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <type_traits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

namespace {

using Limbs = std::vector<uint64_t>;

// |value| as |width| zero-padded limbs in a Secret; |value| is wiped.
Secret<Limbs> FixedLimbs(BigUint& value, size_t width) {
  DETA_CHECK_LE(value.limbs().size(), width);
  Limbs limbs(width);
  std::copy(value.limbs().begin(), value.limbs().end(), limbs.begin());
  value.Wipe();
  return Secret<Limbs>(std::move(limbs));
}

// |value| (below ctx's modulus) in ctx's Montgomery form, as FixedLimbs; |value| is
// wiped.
Secret<Limbs> MontLimbs(const MontgomeryContext& ctx, BigUint& value) {
  BigUint mont = ctx.ToMont(value);
  value.Wipe();
  return FixedLimbs(mont, ctx.limbs());
}

bool IsZeroLimbs(const uint64_t* x, size_t count) {
  return std::all_of(x, x + count, [](uint64_t limb) { return limb == 0; });
}

// out = a*b + c for a of |na| limbs and b and c of |nb|, in na + nb limbs, which always
// hold it: a*b + c < (2^(64na) - 1)(2^(64nb) - 1) + 2^(64nb) <= 2^(64(na+nb)).
inline void MulAddLimbs(const uint64_t* a, size_t na, const uint64_t* b, size_t nb,
                        const uint64_t* c, uint64_t* out) {
  using u128 = unsigned __int128;
  std::fill(std::copy(c, c + nb, out), out + na + nb, uint64_t{0});
  for (size_t i = 0; i < na; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < nb; ++j) {
      const u128 cur = static_cast<u128>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    out[i + nb] = carry;  // above everything rows 0..i-1 and c have written
  }
}

// L(x) = (x - 1) / p for x = 1 (mod p) and x < p^2, into the h = limbs(p) limbs at
// |out|. The quotient is below p < 2^(64h) and p is odd, so it is (x - 1) * p^-1 mod
// 2^(64h): an exact division by one truncated product, in which only x's low h limbs
// take part. |t| is h limbs.
inline void ExactQuotient(const uint64_t* x, const uint64_t* p_inv_low, size_t h,
                          uint64_t* out, uint64_t* t) {
  using u128 = unsigned __int128;
  uint64_t borrow = 1;
  for (size_t i = 0; i < h; ++i) {
    t[i] = x[i] - borrow;
    borrow = x[i] < borrow ? 1 : 0;
  }
  std::fill(out, out + h, uint64_t{0});
  for (size_t i = 0; i < h; ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; i + j < h; ++j) {
      const u128 cur = static_cast<u128>(t[i]) * p_inv_low[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
  }
}

// A chunk kernel's scratch of |size| limbs: a stack array of kCapacity limbs when that
// is nonzero (a compile-time width, sized for the most bases a PowModBatch step takes),
// else a heap buffer. Wiped however the chunk ends (a ciphertext divisible by a prime
// throws).
template <size_t kCapacity>
class ChunkScratch {
 public:
  explicit ChunkScratch(size_t size) {
    if constexpr (kCapacity == 0) {
      buffer_.resize(size);
    } else {
      DETA_CHECK_LE(size, kCapacity);
    }
  }
  ~ChunkScratch() { SecureWipe(buffer_.data(), buffer_.size() * sizeof(uint64_t)); }
  ChunkScratch(const ChunkScratch&) = delete;
  ChunkScratch& operator=(const ChunkScratch&) = delete;

  uint64_t* data() { return buffer_.data(); }

 private:
  std::conditional_t<kCapacity != 0, std::array<uint64_t, kCapacity>, Limbs> buffer_{};
};

// Scratch limbs of an encrypt chunk of |count| elements with p^2 of s limbs and p of h:
// r for p^2 and for q^2 per element (then r^n), one element's m, products and Garner
// values (4s), the products' scratch (2s + 2) and DrawR's (3h + 2).
constexpr size_t EncryptScratch(size_t s, size_t h, size_t count) {
  return 2 * s * count + 4 * s + 2 * s + 2 + 3 * h + 2;
}

// Scratch limbs of a decrypt chunk: c mod p^2 and mod q^2 per element (then their
// powers), one element's L values, products and Garner values (6h), and the products'
// scratch (2s + 2).
constexpr size_t DecryptScratch(size_t s, size_t h, size_t count) {
  return 2 * s * count + 6 * h + 2 * s + 2;
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
  // locals below that determine the key (the powers, their L values and the inverses)
  // are wiped by hand; the temporaries inside ToMont, Mod and InvMod are freed unwiped.
  const BigUint& pv = p.ExposeForCrypto();
  const BigUint& qv = q.ExposeForCrypto();
  // Primes of one bit length b make p^2, q^2 and n all ceil(2b/64) limbs (2b - 1 is
  // never a multiple of 64) and p and q both ceil(b/64): the chunk kernels run each
  // group at one width.
  if (pv.Mul(qv) != pub.n() || pv.BitLength() != qv.BitLength()) {
    return std::nullopt;
  }
  PaillierPrivateKey key;
  key.p_minus_1_ = Secret<BigUint>(pv.Sub(BigUint(1)));
  key.q_minus_1_ = Secret<BigUint>(qv.Sub(BigUint(1)));
  // The contexts keep (and wipe) their own copies of p^2, q^2, p and q.
  Secret<BigUint> p2(pv.Mul(pv));
  Secret<BigUint> q2(qv.Mul(qv));
  key.mont_p2_ = std::make_shared<const MontgomeryContext>(p2.ExposeForCrypto());
  key.mont_q2_ = std::make_shared<const MontgomeryContext>(q2.ExposeForCrypto());
  key.mont_p_ = std::make_shared<const MontgomeryContext>(pv);
  key.mont_q_ = std::make_shared<const MontgomeryContext>(qv);
  // hp = L_p(g^(p-1) mod p^2)^-1 mod p (and symmetrically hq): the per-prime analogue
  // of mu, precomputed so decryption costs one inverse-free multiply per prime.
  const BigUint g = pub.n().Add(BigUint(1));
  BigUint gp = key.mont_p2_->PowMod(g, key.p_minus_1_.ExposeForCrypto());
  BigUint gq = key.mont_q2_->PowMod(g, key.q_minus_1_.ExposeForCrypto());
  BigUint lp = gp.Sub(BigUint(1)) / pv;
  BigUint lq = gq.Sub(BigUint(1)) / qv;
  BigUint hp;
  BigUint hq;
  BigUint p_inv_q;
  BigUint p2_inv_q2;
  BigUint p_inv_low;
  BigUint q_inv_low;
  const size_t h = key.mont_p_->limbs();
  const BigUint low = BigUint(1).ShiftLeft(64 * h);
  // p^-1 mod q and (p^2)^-1 mod q^2 exist exactly when p != q; odd primes are invertible
  // mod 2^(64h).
  bool invertible = BigUint::InvMod(lp, pv, &hp) && BigUint::InvMod(lq, qv, &hq) &&
                    BigUint::InvMod(pv, qv, &p_inv_q) &&
                    BigUint::InvMod(p2.ExposeForCrypto(), q2.ExposeForCrypto(),
                                    &p2_inv_q2) &&
                    BigUint::InvMod(pv, low, &p_inv_low) &&
                    BigUint::InvMod(qv, low, &q_inv_low);
  if (invertible) {
    // n * R^2 mod p^2 is n mod p^2 taken into Montgomery form twice.
    BigUint n_p2 = pub.n().Mod(p2.ExposeForCrypto());
    BigUint n_q2 = pub.n().Mod(q2.ExposeForCrypto());
    BigUint n_p2_mont = key.mont_p2_->ToMont(n_p2);
    BigUint n_q2_mont = key.mont_q2_->ToMont(n_q2);
    key.n_p2_ = MontLimbs(*key.mont_p2_, n_p2_mont);
    key.n_q2_ = MontLimbs(*key.mont_q2_, n_q2_mont);
    key.p2_inv_q2_ = MontLimbs(*key.mont_q2_, p2_inv_q2);
    key.hp_ = MontLimbs(*key.mont_p_, hp);
    key.hq_ = MontLimbs(*key.mont_q_, hq);
    key.p_inv_q_ = MontLimbs(*key.mont_q_, p_inv_q);
    key.p_inv_low_ = FixedLimbs(p_inv_low, h);
    key.q_inv_low_ = FixedLimbs(q_inv_low, h);
    n_p2.Wipe();
    n_q2.Wipe();
  }
  for (BigUint* local : {&gp, &gq, &lp, &lq, &hp, &hq, &p_inv_q, &p2_inv_q2, &p_inv_low,
                         &q_inv_low}) {
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

template <size_t kLimbs>
BigUint PaillierPrivateKey::DrawR(const BigUint& n, SecureRng& rng, uint64_t* t) const {
  // The public path's draw: for 0 <= r < n, gcd(r, n) = 1 exactly when neither prime
  // divides r (r = 0 included), so this accepts and re-draws the same values.
  constexpr size_t kHalf = kLimbs / 2;
  const size_t h = mont_p_->limbs();
  BigUint r;
  auto divides = [&](const MontgomeryContext& prime) {
    prime.ReduceLimbs<kHalf>(r.limbs().data(), r.limbs().size(), t, t + h);
    return IsZeroLimbs(t, h);
  };
  do {
    r = BigUint::RandomBelow(rng, n);
  } while (divides(*mont_p_) || divides(*mont_q_));
  return r;
}

template <size_t kLimbs, typename RngAt>
void PaillierPrivateKey::EncryptChunk(std::span<const BigUint> ms, const BigUint& n,
                                      const RngAt& rng_at, std::span<BigUint> out) const {
  // c = (1 + m*n) * r^n, computed mod p^2 and mod q^2 and joined by Garner into the one
  // residue below n^2 = p^2 * q^2 that the public path computes directly.
  constexpr size_t kHalf = kLimbs / 2;
  const size_t s = kLimbs != 0 ? kLimbs : mont_p2_->limbs();
  const size_t h = mont_p_->limbs();
  const size_t count = ms.size();
  constexpr size_t kCapacity =
      kLimbs == 0 ? 0 : EncryptScratch(kLimbs, kHalf, kMaxMontgomeryLanes);
  ChunkScratch<kCapacity> scratch(EncryptScratch(s, h, count));
  uint64_t* rp = scratch.data();
  uint64_t* rq = rp + count * s;
  uint64_t* m = rq + count * s;
  uint64_t* cp = m + s;
  uint64_t* cq = cp + s;
  uint64_t* d = cq + s;
  uint64_t* t = d + s;  // 2s + 2
  uint64_t* draw = t + 2 * s + 2;
  for (size_t i = 0; i < count; ++i) {
    DETA_CHECK_MSG(ms[i] < n, "Paillier plaintext out of range");
    // r < n = p*q < 2p^2 and < 2q^2 (equal-length primes), below the 2m PowModBatch
    // takes, so its s limbs go in unreduced.
    BigUint r = DrawR<kLimbs>(n, rng_at(i), draw);
    std::fill(std::copy(r.limbs().begin(), r.limbs().end(), rp + i * s), rp + (i + 1) * s,
              uint64_t{0});
    std::copy(rp + i * s, rp + (i + 1) * s, rq + i * s);
    r.Wipe();
  }
  mont_p2_->PowModBatch(rp, count, n, rp);
  mont_q2_->PowModBatch(rq, count, n, rq);
  const uint64_t* p2 = mont_p2_->modulus().limbs().data();
  for (size_t i = 0; i < count; ++i) {
    // m < n has at most s limbs. m*n*R (n_p2_ is n*R^2) times r^n leaves Montgomery form
    // as m*n*r^n, and adding r^n makes (1 + m*n) * r^n: no reduction of m or 1 + m*n.
    const std::vector<uint64_t>& ml = ms[i].limbs();
    std::fill(std::copy(ml.begin(), ml.end(), m), m + s, uint64_t{0});
    const uint64_t* rpi = rp + i * s;
    const uint64_t* rqi = rq + i * s;
    mont_p2_->MulMontLimbs<kLimbs>(m, n_p2_.ExposeForCrypto().data(), cp, t);
    mont_p2_->MulMontLimbs<kLimbs>(cp, rpi, cp, t);
    mont_p2_->AddModLimbs<kLimbs>(cp, rpi, cp);
    mont_q2_->MulMontLimbs<kLimbs>(m, n_q2_.ExposeForCrypto().data(), cq, t);
    mont_q2_->MulMontLimbs<kLimbs>(cq, rqi, cq, t);
    mont_q2_->AddModLimbs<kLimbs>(cq, rqi, cq);
    // Garner: c = c_p + p^2 * ((c_q - c_p) * (p^2)^-1 mod q^2) < p^2 * q^2.
    mont_q2_->ReduceLimbs<kLimbs>(cp, s, d, t);
    mont_q2_->SubModLimbs<kLimbs>(cq, d, d);
    mont_q2_->MulMontLimbs<kLimbs>(d, p2_inv_q2_.ExposeForCrypto().data(), d, t);
    Limbs c(2 * s);
    MulAddLimbs(p2, s, d, s, cp, c.data());
    out[i] = BigUint::FromLimbs(std::move(c));
  }
}

template <size_t kLimbs>
void PaillierPrivateKey::DecryptChunk(std::span<const BigUint> cs,
                                      std::span<BigUint> out) const {
  // m mod p = L_p(c^(p-1) mod p^2) * hp mod p, likewise mod q, recombined with Garner's
  // formula.
  constexpr size_t kHalf = kLimbs / 2;
  const size_t s = kLimbs != 0 ? kLimbs : mont_p2_->limbs();
  const size_t h = mont_p_->limbs();
  const size_t count = cs.size();
  constexpr size_t kCapacity =
      kLimbs == 0 ? 0 : DecryptScratch(kLimbs, kHalf, kMaxMontgomeryLanes);
  ChunkScratch<kCapacity> scratch(DecryptScratch(s, h, count));
  uint64_t* up = scratch.data();
  uint64_t* uq = up + count * s;
  uint64_t* lp = uq + count * s;
  uint64_t* lq = lp + h;
  uint64_t* mp = lq + h;
  uint64_t* mq = mp + h;
  uint64_t* d = mq + h;
  uint64_t* w = d + h;
  uint64_t* t = w + h;  // 2s + 2
  for (size_t i = 0; i < count; ++i) {
    const std::vector<uint64_t>& c = cs[i].limbs();
    mont_p2_->ReduceLimbs<kLimbs>(c.data(), c.size(), up + i * s, t);
    mont_q2_->ReduceLimbs<kLimbs>(c.data(), c.size(), uq + i * s, t);
  }
  mont_p2_->PowModBatch(up, count, p_minus_1_.ExposeForCrypto(), up);
  mont_q2_->PowModBatch(uq, count, q_minus_1_.ExposeForCrypto(), uq);
  const uint64_t* p = mont_p_->modulus().limbs().data();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t* upi = up + i * s;
    const uint64_t* uqi = uq + i * s;
    // A power is 1 mod its prime by Fermat, unless the prime divides c: then it is 0
    // and L is undefined.
    DETA_CHECK_MSG(!IsZeroLimbs(upi, s) && !IsZeroLimbs(uqi, s),
                   "Paillier ciphertext divisible by a prime of the key");
    ExactQuotient(upi, p_inv_low_.ExposeForCrypto().data(), h, lp, w);
    ExactQuotient(uqi, q_inv_low_.ExposeForCrypto().data(), h, lq, w);
    mont_p_->MulMontLimbs<kHalf>(lp, hp_.ExposeForCrypto().data(), mp, t);
    mont_q_->MulMontLimbs<kHalf>(lq, hq_.ExposeForCrypto().data(), mq, t);
    // Garner: m = m_p + p * ((m_q - m_p) * p^-1 mod q) < p * q = n.
    mont_q_->ReduceLimbs<kHalf>(mp, h, d, t);
    mont_q_->SubModLimbs<kHalf>(mq, d, d);
    mont_q_->MulMontLimbs<kHalf>(d, p_inv_q_.ExposeForCrypto().data(), d, t);
    Limbs m(2 * h);
    MulAddLimbs(p, h, d, h, mp, m.data());
    out[i] = BigUint::FromLimbs(std::move(m));
  }
}

BigUint PaillierPrivateKey::Encrypt(const BigUint& m, SecureRng& rng) const {
  const BigUint n = p_.ExposeForCrypto().Mul(q_.ExposeForCrypto());
  BigUint c;
  const std::span<const BigUint> in(&m, 1);
  const std::span<BigUint> out(&c, 1);
  auto rng_at = [&](size_t) -> SecureRng& { return rng; };
  if (FourLimbs()) {
    EncryptChunk<4>(in, n, rng_at, out);
  } else {
    EncryptChunk<0>(in, n, rng_at, out);
  }
  return c;
}

std::vector<BigUint> PaillierPrivateKey::EncryptBatch(const std::vector<BigUint>& ms,
                                                      SecureRng& rng) const {
  const BigUint n = p_.ExposeForCrypto().Mul(q_.ExposeForCrypto());
  // One PowModBatch per prime square per chunk: a chunk is one step of its lanes.
  return EncryptEach(ms, rng, BatchGrain(),
                     [&](std::span<const BigUint> chunk, std::span<const Bytes> seeds,
                         std::span<BigUint> out) {
                       std::optional<SecureRng> local;
                       auto rng_at = [&](size_t i) -> SecureRng& {
                         return local.emplace(seeds[i]);
                       };
                       if (FourLimbs()) {
                         EncryptChunk<4>(chunk, n, rng_at, out);
                       } else {
                         EncryptChunk<0>(chunk, n, rng_at, out);
                       }
                     });
}

BigUint PaillierPrivateKey::Decrypt(const BigUint& c) const {
  // CRT decryption: exponentiate against the half-size moduli p^2/q^2 with the
  // half-size exponents p-1/q-1, then recombine.
  BigUint m;
  if (FourLimbs()) {
    DecryptChunk<4>(std::span<const BigUint>(&c, 1), std::span<BigUint>(&m, 1));
  } else {
    DecryptChunk<0>(std::span<const BigUint>(&c, 1), std::span<BigUint>(&m, 1));
  }
  return m;
}

std::vector<BigUint> PaillierPrivateKey::DecryptBatch(const std::vector<BigUint>& cs) const {
  telemetry::Span span("crypto.paillier.decrypt_batch");
  DETA_COUNTER("crypto.paillier.decrypt_ops").Add(cs.size());
  DETA_HISTOGRAM("crypto.paillier.decrypt_batch_size", ::deta::telemetry::Unit::kCount)
      .Record(static_cast<double>(cs.size()));
  std::vector<BigUint> out(cs.size());
  parallel::ParallelFor(0, static_cast<int64_t>(cs.size()),
                        static_cast<int64_t>(BatchGrain()), [&](int64_t lo, int64_t hi) {
    const size_t begin = static_cast<size_t>(lo);
    const size_t count = static_cast<size_t>(hi - lo);
    const std::span<const BigUint> chunk =
        std::span<const BigUint>(cs).subspan(begin, count);
    const std::span<BigUint> dest = std::span<BigUint>(out).subspan(begin, count);
    if (FourLimbs()) {
      DecryptChunk<4>(chunk, dest);
    } else {
      DecryptChunk<0>(chunk, dest);
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
