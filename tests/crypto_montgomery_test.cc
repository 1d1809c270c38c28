// Differential tests for the Montgomery hot path (crypto/montgomery.h): every REDC
// multiply, fixed-window exponentiation, CRT decryption and CRT encryption must be
// bitwise identical to the reference it replaced. The suites below throw >10k randomized
// cases at the fast paths with the slow paths as oracle — the determinism guarantee
// (DESIGN.md "Crypto hot path") rests on this equivalence, not on code inspection.
#include <gtest/gtest.h>

#include "common/check.h"
#include "common/parallel.h"
#include "crypto/bigint.h"
#include "crypto/montgomery.h"
#include "crypto/paillier.h"
#include "net/codec.h"
#include "persist/paillier_key_codec.h"

namespace deta::crypto {
namespace {

// Odd modulus with exactly |bits| bits (msb set by RandomBits; the +1 on an even draw
// cannot carry past the top bit because the all-ones value is already odd).
BigUint RandomOddModulus(SecureRng& rng, size_t bits) {
  BigUint m = BigUint::RandomBits(rng, bits);
  return m.IsOdd() ? m : m.Add(BigUint(1));
}

// Square-and-multiply over BigUint::MulMod: the oracle every Montgomery exponentiation
// below is checked against.
BigUint PowModSchoolbook(const BigUint& base, const BigUint& exp, const BigUint& m) {
  BigUint result = BigUint(1).Mod(m);
  BigUint b = base.Mod(m);
  for (size_t i = 0; i < exp.BitLength(); ++i) {
    if (exp.Bit(i)) {
      result = BigUint::MulMod(result, b, m);
    }
    b = BigUint::MulMod(b, b, m);
  }
  return result;
}

constexpr size_t kBitSizes[] = {8, 31, 32, 33, 64, 96, 128, 160, 224, 256};

// |value| as |width| zero-padded limbs, and back.
std::vector<uint64_t> ToLimbs(const BigUint& value, size_t width) {
  std::vector<uint64_t> limbs(width);
  std::copy(value.limbs().begin(), value.limbs().end(), limbs.begin());
  return limbs;
}
BigUint FromLimbs(const uint64_t* limbs, size_t width) {
  return BigUint::FromLimbs(std::vector<uint64_t>(limbs, limbs + width));
}

// PowModBatch over BigUint bases of any size. A base below 2m that fits s limbs goes in
// as it is, as the Paillier private key's r does (the kernels take any base below 2m);
// any other is reduced by ReduceLimbs first, as the key's ciphertexts are.
std::vector<BigUint> PowModBatchOf(const MontgomeryContext& ctx,
                                   const std::vector<BigUint>& bases,
                                   const BigUint& exp) {
  const size_t s = ctx.limbs();
  const BigUint twice_m = ctx.modulus().Mul(BigUint(2));
  std::vector<uint64_t> limbs(bases.size() * s);
  std::vector<uint64_t> t(2 * s + 2);
  for (size_t i = 0; i < bases.size(); ++i) {
    const std::vector<uint64_t>& b = bases[i].limbs();
    if (bases[i] < twice_m && b.size() <= s) {
      std::copy(b.begin(), b.end(), limbs.begin() + static_cast<long>(i * s));
    } else {
      ctx.ReduceLimbs<0>(b.data(), b.size(), limbs.data() + i * s, t.data());
    }
  }
  ctx.PowModBatch(limbs.data(), bases.size(), exp, limbs.data());
  std::vector<BigUint> out;
  for (size_t i = 0; i < bases.size(); ++i) {
    out.push_back(FromLimbs(limbs.data() + i * s, s));
  }
  return out;
}

// The limb kernels against BigUint at one width: kLimbs == 0 runs the run-time loops,
// kLimbs > 0 the unrolled ones (Paillier's p^2 and q^2 at 4 limbs, p and q at 2). Each
// kernel sees the edges of its domain: MulMontLimbs a first operand anywhere below R
// (0, 1, m - 1, m, R - 1), AddModLimbs and SubModLimbs m - 1 and 0, and ReduceLimbs
// inputs of 0 to 3s + 1 limbs, m itself, multiples of m and all-ones values.
template <size_t kLimbs>
void CheckLimbKernels(const BigUint& m, SecureRng& rng) {
  MontgomeryContext ctx(m);
  const size_t s = ctx.limbs();
  ASSERT_TRUE(kLimbs == 0 || kLimbs == s);
  const BigUint r = BigUint(1).ShiftLeft(64 * s);
  BigUint r_inv;
  ASSERT_TRUE(BigUint::InvMod(r, m, &r_inv));
  const BigUint m1 = m.Sub(BigUint(1));
  std::vector<BigUint> below_m = {BigUint(0), BigUint(1), m1};
  std::vector<BigUint> below_r = {BigUint(0), BigUint(1), m1, m, r.Sub(BigUint(1))};
  for (int i = 0; i < 6; ++i) {
    below_m.push_back(BigUint::RandomBelow(rng, m));
    below_r.push_back(BigUint::RandomBelow(rng, r));
  }
  std::vector<uint64_t> out(s);
  std::vector<uint64_t> t(2 * s + 2);
  for (const BigUint& a : below_r) {
    for (const BigUint& b : below_m) {
      const std::vector<uint64_t> la = ToLimbs(a, s);
      const std::vector<uint64_t> lb = ToLimbs(b, s);
      ctx.MulMontLimbs<kLimbs>(la.data(), lb.data(), out.data(), t.data());
      ASSERT_EQ(FromLimbs(out.data(), s),
                BigUint::MulMod(a.Mod(m), b, m).Mul(r_inv).Mod(m))
          << "m=" << m.ToHexString() << " a=" << a.ToHexString()
          << " b=" << b.ToHexString();
      if (a < m) {
        ctx.AddModLimbs<kLimbs>(la.data(), lb.data(), out.data());
        ASSERT_EQ(FromLimbs(out.data(), s), BigUint::AddMod(a, b, m));
        ctx.SubModLimbs<kLimbs>(la.data(), lb.data(), out.data());
        ASSERT_EQ(FromLimbs(out.data(), s), BigUint::SubMod(a, b, m));
      }
    }
  }
  std::vector<BigUint> wide = {BigUint(0), m, m.Mul(BigUint(3)), m.Mul(r).Add(m1),
                               BigUint(1).ShiftLeft(64 * 3 * s).Sub(BigUint(1))};
  for (size_t limbs = 1; limbs <= 3 * s + 1; ++limbs) {
    wide.push_back(BigUint::RandomBits(rng, 64 * limbs));
  }
  for (const BigUint& x : wide) {
    ctx.ReduceLimbs<kLimbs>(x.limbs().data(), x.limbs().size(), out.data(), t.data());
    ASSERT_EQ(FromLimbs(out.data(), s), x.Mod(m))
        << "m=" << m.ToHexString() << " x=" << x.ToHexString();
  }
}

TEST(MontgomeryDifferentialTest, LimbKernelsMatchBigUint) {
  SecureRng rng(StringToBytes("mont-limb-kernels"));
  const BigUint all_ones_256 = BigUint(1).ShiftLeft(256).Sub(BigUint(1));
  const BigUint all_ones_128 = BigUint(1).ShiftLeft(128).Sub(BigUint(1));
  for (const BigUint& m : {all_ones_256, BigUint(1).ShiftLeft(192).Add(BigUint(1)),
                           RandomOddModulus(rng, 256), RandomOddModulus(rng, 200)}) {
    CheckLimbKernels<4>(m, rng);
    CheckLimbKernels<0>(m, rng);
  }
  for (const BigUint& m : {all_ones_128, BigUint(1).ShiftLeft(64).Add(BigUint(1)),
                           RandomOddModulus(rng, 128), RandomOddModulus(rng, 97)}) {
    CheckLimbKernels<2>(m, rng);
    CheckLimbKernels<0>(m, rng);
  }
  for (size_t bits : {size_t{3}, size_t{64}, size_t{130}, size_t{512}, size_t{1024}}) {
    CheckLimbKernels<0>(RandomOddModulus(rng, bits), rng);
  }
}

TEST(MontgomeryDifferentialTest, MulModMatchesBigUintMulMod) {
  SecureRng rng(StringToBytes("mont-mulmod"));
  int cases = 0;
  for (size_t bits : kBitSizes) {
    for (int rep = 0; rep < 60; ++rep) {
      BigUint m = RandomOddModulus(rng, bits);
      MontgomeryContext ctx(m);
      for (int i = 0; i < 15; ++i) {
        BigUint a = BigUint::RandomBelow(rng, m);
        BigUint b = BigUint::RandomBelow(rng, m);
        ASSERT_EQ(ctx.MulMod(a, b), BigUint::MulMod(a, b, m))
            << "bits=" << bits << " m=" << m.ToHexString();
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 9000);
}

TEST(MontgomeryDifferentialTest, ToMontFromMontRoundTrips) {
  SecureRng rng(StringToBytes("mont-roundtrip"));
  int cases = 0;
  for (size_t bits : kBitSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      BigUint m = RandomOddModulus(rng, bits);
      MontgomeryContext ctx(m);
      for (int i = 0; i < 5; ++i) {
        BigUint a = BigUint::RandomBelow(rng, m);
        ASSERT_EQ(ctx.FromMont(ctx.ToMont(a)), a) << "bits=" << bits;
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000);
}

TEST(MontgomeryDifferentialTest, MulMontIsMontgomeryProduct) {
  SecureRng rng(StringToBytes("mont-mulmont"));
  for (int rep = 0; rep < 200; ++rep) {
    BigUint m = RandomOddModulus(rng, 128);
    MontgomeryContext ctx(m);
    BigUint a = BigUint::RandomBelow(rng, m);
    BigUint b = BigUint::RandomBelow(rng, m);
    // FromMont(MulMont(ToMont(a), ToMont(b))) is a*b mod m by definition of REDC.
    EXPECT_EQ(ctx.FromMont(ctx.MulMont(ctx.ToMont(a), ctx.ToMont(b))),
              BigUint::MulMod(a, b, m));
  }
}

TEST(MontgomeryDifferentialTest, PowModMatchesSchoolbookOddModulus) {
  SecureRng rng(StringToBytes("mont-powmod"));
  int cases = 0;
  for (size_t bits :
       {size_t{32}, size_t{64}, size_t{128}, size_t{192}, size_t{256}, size_t{512}}) {
    for (int rep = 0; rep < 60; ++rep) {
      BigUint m = RandomOddModulus(rng, bits);
      // Base intentionally drawn wider than m so the pre-reduction path is exercised.
      BigUint base = BigUint::RandomBits(rng, bits + 17);
      BigUint exp = BigUint::RandomBits(rng, 1 + rng.NextBelow(bits));
      ASSERT_EQ(BigUint::PowMod(base, exp, m), PowModSchoolbook(base, exp, m))
          << "bits=" << bits << " m=" << m.ToHexString();
      ++cases;
    }
  }
  EXPECT_GE(cases, 300);
}

TEST(MontgomeryDifferentialTest, PowModExponentEdgeCases) {
  SecureRng rng(StringToBytes("mont-powmod-edge"));
  for (int rep = 0; rep < 50; ++rep) {
    BigUint m = RandomOddModulus(rng, 96);
    BigUint base = BigUint::RandomBelow(rng, m);
    EXPECT_EQ(BigUint::PowMod(base, BigUint(0), m), BigUint(1).Mod(m));
    EXPECT_EQ(BigUint::PowMod(base, BigUint(1), m), base);
    EXPECT_EQ(BigUint::PowMod(BigUint(0), BigUint(5), m), BigUint(0));
    // Exponent = modulus-sized all-significant-bits value.
    BigUint exp = m.Sub(BigUint(1));
    EXPECT_EQ(BigUint::PowMod(base, exp, m), PowModSchoolbook(base, exp, m));
  }
  // Modulus 1: everything is 0.
  EXPECT_EQ(BigUint::PowMod(BigUint(7), BigUint(3), BigUint(1)), BigUint(0));
}

// Moduli at the workload's and the benches' sizes. 288 and 480 bits fill only half of
// their top 64-bit limb, so there m sits 32 bits and more below R = 2^(64*s); 511 bits
// is the workload's n^2 for a 256-bit n.
constexpr size_t kWideBitSizes[] = {288, 480, 511, 512, 1024, 2048, 4096};

// MulMod, the Montgomery-form round trips, and PowMod (with a random base and with
// m - 1) against the schoolbook oracles, plus the m - 1 operand edge.
void CheckAgainstSchoolbook(const BigUint& m, SecureRng& rng, int products) {
  MontgomeryContext ctx(m);
  const size_t bits = m.BitLength();
  const BigUint m1 = m.Sub(BigUint(1));
  for (int i = 0; i < products; ++i) {
    BigUint a = BigUint::RandomBelow(rng, m);
    BigUint b = BigUint::RandomBelow(rng, m);
    ASSERT_EQ(ctx.MulMod(a, b), BigUint::MulMod(a, b, m)) << "m=" << m.ToHexString();
    ASSERT_EQ(ctx.MulMod(a, m1), BigUint::MulMod(a, m1, m)) << "m=" << m.ToHexString();
    ASSERT_EQ(ctx.FromMont(ctx.MulMont(ctx.ToMont(a), ctx.ToMont(b))),
              BigUint::MulMod(a, b, m));
  }
  ASSERT_EQ(ctx.MulMod(m1, m1), BigUint::MulMod(m1, m1, m)) << "m=" << m.ToHexString();
  ASSERT_EQ(ctx.FromMont(ctx.ToMont(m1)), m1);
  ASSERT_EQ(ctx.MulMont(m1, m1), ctx.ToMont(ctx.FromMont(ctx.MulMont(m1, m1))));
  // Full-width exponents up to 1024 bits; shorter ones keep the oracle fast above that.
  BigUint exp = BigUint::RandomBits(rng, bits <= 1024 ? bits : 96);
  BigUint base = BigUint::RandomBits(rng, bits + 9);
  ASSERT_EQ(ctx.PowMod(base, exp), PowModSchoolbook(base, exp, m))
      << "m=" << m.ToHexString();
  ASSERT_EQ(ctx.PowMod(m1, exp), PowModSchoolbook(m1, exp, m));
  ASSERT_EQ(ctx.PowMod(base, m1), PowModSchoolbook(base, m1, m))
      << "m=" << m.ToHexString();
}

TEST(MontgomeryDifferentialTest, WideModuliMatchSchoolbook) {
  SecureRng rng(StringToBytes("mont-wide"));
  for (size_t bits : kWideBitSizes) {
    int reps = bits <= 1024 ? 6 : 2;
    for (int rep = 0; rep < reps; ++rep) {
      CheckAgainstSchoolbook(RandomOddModulus(rng, bits), rng, 20);
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// The top 64-bit limb all ones maximizes every carry in the CIOS rows and the final
// subtraction; 2^(64*s) - 1 is the extreme case. s = 4 is the width PowMod runs at a
// constant (p^2 and q^2 of a 256-bit Paillier key).
TEST(MontgomeryDifferentialTest, AllOnesTopLimbMatchesSchoolbook) {
  SecureRng rng(StringToBytes("mont-all-ones"));
  for (size_t s : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5}, size_t{8},
                   size_t{9}, size_t{16}}) {
    BigUint top = BigUint(~uint64_t{0}).ShiftLeft(64 * (s - 1));
    BigUint all_ones = BigUint(1).ShiftLeft(64 * s).Sub(BigUint(1));
    CheckAgainstSchoolbook(all_ones, rng, 10);
    for (int rep = 0; rep < 3 && s > 1; ++rep) {
      BigUint low = BigUint::RandomBits(rng, 64 * (s - 1) - rng.NextBelow(8));
      CheckAgainstSchoolbook(top.Add(low.IsOdd() ? low : low.Add(BigUint(1))), rng, 10);
    }
    if (HasFatalFailure()) {
      return;
    }
  }
}

// PowModBatch against the oracle, on every kernel this CPU runs. The moduli are 4-limb
// (193 to 256 bits, 2^192 + 1 and 2^256 - 1 among them, and p^2 and q^2 of 128-bit
// primes), where a CPU with AVX-512 IFMA runs the 8-lane kernel, and 1- to 3-limb,
// where PowModBatch runs PowMod's kernel on every CPU. The bases are 0, 1, m - 1, m and
// m + 1 (passed unreduced where they fit s limbs), larger values (reduced first, by
// ReduceLimbs), random residues and, under p^2 and q^2, multiples of the prime, whose
// powers are 0: the lanes leave Montgomery form at m there, so only the final
// subtraction makes them canonical. Batch sizes 0-17 and 186 (a lane-packed fragment)
// take full and partial lane steps; each batch is a window of the base pool at a moving
// offset, so every base visits every lane.
TEST(MontgomeryDifferentialTest, PowModBatchMatchesOracleOnEveryKernel) {
  SecureRng rng(StringToBytes("mont-powmod-batch"));
  const PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  const BigUint& p = key.priv.p().ExposeForCrypto();
  const BigUint& q = key.priv.q().ExposeForCrypto();
  const BigUint all_ones_256 = BigUint(1).ShiftLeft(256).Sub(BigUint(1));
  const std::vector<BigUint> exps = {BigUint(0),   BigUint(1),
                                     BigUint(15),  BigUint(16),
                                     BigUint(1).ShiftLeft(255), all_ones_256,
                                     p.Sub(BigUint(1)), key.pub.n()};
  struct Modulus {
    BigUint m;
    BigUint prime;  // m = prime^2, or 0
  };
  std::vector<Modulus> moduli = {{BigUint(1).ShiftLeft(192).Add(BigUint(1)), BigUint()},
                                 {all_ones_256, BigUint()},
                                 {p.Mul(p), p},
                                 {q.Mul(q), q}};
  for (size_t bits : {size_t{193}, size_t{200}, size_t{224}, size_t{255}, size_t{256}}) {
    moduli.push_back({RandomOddModulus(rng, bits), BigUint()});
  }
  for (size_t bits : {size_t{64}, size_t{128}, size_t{192}}) {
    moduli.push_back({RandomOddModulus(rng, bits), BigUint()});
  }
  std::vector<size_t> sizes;
  for (size_t size = 0; size <= 17; ++size) {
    sizes.push_back(size);
  }
  sizes.push_back(186);
  constexpr size_t kPool = 186;
  size_t checked = 0;
  for (const Modulus& mod : moduli) {
    const BigUint& m = mod.m;
    MontgomeryContext ctx(m);
    const bool four_limbs = m.limbs().size() == 4;
    EXPECT_EQ(ctx.BatchLanes(), four_limbs ? static_cast<size_t>(MontgomeryLanes()) : 1u)
        << "m=" << m.ToHexString();
    std::vector<BigUint> pool = {BigUint(0), BigUint(1), m.Sub(BigUint(1)), m,
                                 m.Add(BigUint(1)), m.Mul(BigUint(3)).Add(BigUint(7)),
                                 BigUint::RandomBits(rng, 2 * m.BitLength() + 5)};
    if (!mod.prime.IsZero()) {
      for (const BigUint& k : {BigUint(1), BigUint(2), mod.prime.Sub(BigUint(1)),
                               BigUint::RandomBelow(rng, mod.prime)}) {
        pool.push_back(mod.prime.Mul(k.IsZero() ? BigUint(3) : k));
      }
      pool.push_back(key.pub.n());  // p * q, divisible by either prime
    }
    while (pool.size() < kPool) {
      pool.push_back(BigUint::RandomBelow(rng, m));
    }
    for (const BigUint& exp : exps) {
      std::vector<BigUint> want;
      for (const BigUint& base : pool) {
        want.push_back(PowModSchoolbook(base, exp, m));
      }
      size_t offset = 0;
      for (size_t size : sizes) {
        std::vector<BigUint> bases;
        for (size_t i = 0; i < size; ++i) {
          bases.push_back(pool[(offset + i) % kPool]);
        }
        std::vector<BigUint> got = PowModBatchOf(ctx, bases, exp);
        ASSERT_EQ(got.size(), size);
        for (size_t i = 0; i < size; ++i) {
          ASSERT_EQ(got[i], want[(offset + i) % kPool])
              << "lanes=" << ctx.BatchLanes() << " m=" << m.ToHexString()
              << " exp=" << exp.ToHexString() << " size=" << size << " i=" << i
              << " base=" << pool[(offset + i) % kPool].ToHexString();
          ++checked;
        }
        offset += 5;
      }
    }
  }
  EXPECT_GE(checked, moduli.size() * exps.size() * 339);
}

TEST(MontgomeryContextTest, RejectsEvenOrTrivialModulus) {
  EXPECT_THROW(MontgomeryContext(BigUint(10)), CheckFailure);
  EXPECT_THROW(MontgomeryContext(BigUint(0)), CheckFailure);
  EXPECT_THROW(MontgomeryContext(BigUint(1)), CheckFailure);
}

// Textbook Paillier decryption, m = L(c^lambda mod n^2) * mu mod n with
// L(u) = (u - 1) / n, lambda = lcm(p-1, q-1) and mu = L(g^lambda mod n^2)^-1 mod n for
// g = n + 1: the oracle the CRT decryption path is checked against. The key holds
// neither lambda nor mu, so the oracle derives them from p and q.
class TextbookPaillier {
 public:
  explicit TextbookPaillier(const PaillierKeyPair& key)
      : n_(key.pub.n()), n2_(n_.Mul(n_)) {
    BigUint p1 = key.priv.p().ExposeForCrypto().Sub(BigUint(1));
    BigUint q1 = key.priv.q().ExposeForCrypto().Sub(BigUint(1));
    lambda_ = p1.Mul(q1) / BigUint::Gcd(p1, q1);
    BigUint g = n_.Add(BigUint(1));
    EXPECT_TRUE(BigUint::InvMod(L(BigUint::PowMod(g, lambda_, n2_)), n_, &mu_));
  }

  BigUint Decrypt(const BigUint& c) const {
    return BigUint::MulMod(L(BigUint::PowMod(c, lambda_, n2_)), mu_, n_);
  }

 private:
  BigUint L(const BigUint& u) const { return u.Sub(BigUint(1)) / n_; }

  BigUint n_;
  BigUint n2_;
  BigUint lambda_;
  BigUint mu_;
};

// CRT decryption must be plaintext-identical to the textbook lambda/mu decryption for
// the same key.
TEST(PaillierCrtDifferentialTest, CrtDecryptMatchesLambdaMu) {
  SecureRng rng(StringToBytes("crt-diff"));
  for (size_t modulus_bits : {size_t{128}, size_t{256}}) {
    PaillierKeyPair key = GeneratePaillierKey(rng, modulus_bits);
    TextbookPaillier textbook(key);
    for (int i = 0; i < 100; ++i) {
      BigUint m = BigUint::RandomBelow(rng, key.pub.n());
      BigUint c = key.pub.Encrypt(m, rng);
      BigUint via_crt = key.priv.Decrypt(c);
      BigUint via_lambda = textbook.Decrypt(c);
      ASSERT_EQ(via_crt, via_lambda) << "modulus_bits=" << modulus_bits << " i=" << i;
      ASSERT_EQ(via_crt, m);
    }
  }
}

// CRT encryption on the private key must return the public key's ciphertexts: same r
// per element, same accepted draws, same residue mod n^2, and the caller's rng left at
// the same position. m = 0 and m = n - 1 bound the plaintext range. The key is checked
// as generated and after a round trip through the key codec, which rebuilds every
// derived CRT value (p^2 and q^2, their contexts and (p^2)^-1 mod q^2) from n, p and q.
TEST(PaillierCrtDifferentialTest, CrtEncryptMatchesPublicEncrypt) {
  SecureRng rng(StringToBytes("crt-encrypt-diff"));
  for (size_t modulus_bits : {size_t{128}, size_t{256}, size_t{512}, size_t{1024}}) {
    for (int k = 0; k < 2; ++k) {
      PaillierKeyPair generated = GeneratePaillierKey(rng, modulus_bits);
      std::optional<PaillierKeyPair> parsed =
          persist::ParsePaillierKey(persist::SerializePaillierKey(generated));
      ASSERT_TRUE(parsed.has_value());
      const BigUint& n = generated.pub.n();
      std::vector<BigUint> ms = {BigUint(0), n.Sub(BigUint(1))};
      for (int i = 0; i < 14; ++i) {
        ms.push_back(BigUint::RandomBelow(rng, n));
      }
      for (const PaillierKeyPair* key : {&generated, &*parsed}) {
        const Bytes seed = rng.NextBytes(32);
        SecureRng public_rng(seed);
        SecureRng crt_rng(seed);
        std::vector<BigUint> via_public = key->pub.EncryptBatch(ms, public_rng);
        std::vector<BigUint> via_crt = key->priv.EncryptBatch(ms, crt_rng);
        ASSERT_EQ(via_crt.size(), ms.size());
        for (size_t i = 0; i < ms.size(); ++i) {
          ASSERT_EQ(via_crt[i], via_public[i])
              << "modulus_bits=" << modulus_bits << " key=" << k << " i=" << i
              << (key == &generated ? " generated" : " parsed");
        }
        EXPECT_EQ(crt_rng.NextBytes(32), public_rng.NextBytes(32))
            << "modulus_bits=" << modulus_bits;
        // The single-element form draws from the caller's rng directly.
        EXPECT_EQ(key->priv.Encrypt(ms[1], crt_rng), key->pub.Encrypt(ms[1], public_rng));
        EXPECT_EQ(key->priv.Decrypt(via_crt[1]), ms[1]);
      }
    }
  }
}

// The private key's batch forms run one PowModBatch per prime square per chunk of
// BatchLanes() elements. At every batch size around a lane step (and at 186, a
// lane-packed fragment) and every thread count, EncryptBatch must return the public
// path's ciphertexts and leave the caller's rng where the public path leaves it, and
// DecryptBatch must return the plaintexts.
TEST(PaillierCrtDifferentialTest, BatchesOfEverySizeMatchThePublicPath) {
  SecureRng rng(StringToBytes("crt-batch-sizes"));
  const PaillierKeyPair key = GeneratePaillierKey(rng, 256);
  const BigUint& n = key.pub.n();
  for (size_t size :
       {size_t{1}, size_t{7}, size_t{8}, size_t{9}, size_t{17}, size_t{186}}) {
    std::vector<BigUint> ms = {n.Sub(BigUint(1)), BigUint(0)};
    while (ms.size() < size) {
      ms.push_back(BigUint::RandomBelow(rng, n));
    }
    ms.resize(size);
    const Bytes seed = rng.NextBytes(32);
    for (int threads : {1, 2, 4}) {
      parallel::ScopedThreads scoped(threads);
      SecureRng public_rng(seed);
      SecureRng crt_rng(seed);
      std::vector<BigUint> via_public = key.pub.EncryptBatch(ms, public_rng);
      std::vector<BigUint> via_crt = key.priv.EncryptBatch(ms, crt_rng);
      ASSERT_EQ(via_crt.size(), size);
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(via_crt[i], via_public[i])
            << "size=" << size << " threads=" << threads << " i=" << i;
      }
      EXPECT_EQ(crt_rng.NextBytes(32), public_rng.NextBytes(32))
          << "size=" << size << " threads=" << threads;
      std::vector<BigUint> plains = key.priv.DecryptBatch(via_crt);
      ASSERT_EQ(plains.size(), size);
      for (size_t i = 0; i < size; ++i) {
        ASSERT_EQ(plains[i], ms[i]) << "size=" << size << " threads=" << threads
                                    << " i=" << i;
      }
    }
  }
}

// A key built by FromPrimes from two distinct random primes of |bits| bits each.
PaillierKeyPair KeyFromPrimesOf(SecureRng& rng, size_t bits) {
  for (;;) {
    BigUint p = BigUint::RandomPrime(rng, bits);
    BigUint q = BigUint::RandomPrime(rng, bits);
    if (p == q) {
      continue;
    }
    PaillierPublicKey pub(p.Mul(q));
    std::optional<PaillierPrivateKey> priv = PaillierPrivateKey::FromPrimes(
        pub, Secret<BigUint>(std::move(p)), Secret<BigUint>(std::move(q)));
    EXPECT_TRUE(priv.has_value()) << "bits=" << bits;
    return PaillierKeyPair{std::move(pub), std::move(*priv)};
  }
}

// r mod p and r mod q on limbs, DrawR's divisibility test, against BigUint::Mod at the
// width the key's kernels run p and q (2 limbs at the default key size).
void ExpectDivisibilityMatchesMod(const PaillierKeyPair& key, const BigUint& r) {
  for (const BigUint* prime : {&key.priv.p().ExposeForCrypto(),
                               &key.priv.q().ExposeForCrypto()}) {
    MontgomeryContext ctx(*prime);
    const size_t h = ctx.limbs();
    std::vector<uint64_t> out(h);
    std::vector<uint64_t> t(2 * h + 2);
    if (h == 2) {
      ctx.ReduceLimbs<2>(r.limbs().data(), r.limbs().size(), out.data(), t.data());
    } else {
      ctx.ReduceLimbs<0>(r.limbs().data(), r.limbs().size(), out.data(), t.data());
    }
    EXPECT_EQ(FromLimbs(out.data(), h), r.Mod(*prime))
        << "r=" << r.ToHexString() << " prime=" << prime->ToHexString();
  }
}

// The private key's fixed-limb CRT kernels against the BigUint oracles, at every width
// they run: the public path's n^2 encryption (same seeds, same ciphertexts, same rng
// position) and the textbook lambda/mu decryption. The keys are generated at 128 to 1024
// bits, as PaillierCrtDifferentialTest's are, and also built from primes of 8 to 129
// bits, which give p^2 of 1 to 5 limbs and p of 1 to 3, with p^2 at twice p's limbs and
// one less; each key is checked as built and after a round trip through the key codec.
// The plaintexts are 0, 1, n - 1 and random; the ciphertexts include 1, whose plaintext
// is 0. At 8-bit primes about one r in a hundred shares a prime with n, so DrawR
// re-draws dozens of times and must accept exactly what the public path's gcd test does.
TEST(PaillierCrtJoinTest, KernelsMatchTheBigUintOraclesAtEveryWidth) {
  SecureRng rng(StringToBytes("crt-join"));
  std::vector<PaillierKeyPair> keys;
  for (size_t modulus_bits : {size_t{128}, size_t{256}, size_t{512}, size_t{1024}}) {
    keys.push_back(GeneratePaillierKey(rng, modulus_bits));
  }
  for (size_t prime_bits : {size_t{8}, size_t{31}, size_t{32}, size_t{33}, size_t{64},
                            size_t{65}, size_t{96}, size_t{97}, size_t{129}}) {
    keys.push_back(KeyFromPrimesOf(rng, prime_bits));
  }
  for (const PaillierKeyPair& built : keys) {
    const std::optional<PaillierKeyPair> parsed =
        persist::ParsePaillierKey(persist::SerializePaillierKey(built));
    ASSERT_TRUE(parsed.has_value());
    const BigUint& n = built.pub.n();
    const BigUint& p = built.priv.p().ExposeForCrypto();
    const BigUint& q = built.priv.q().ExposeForCrypto();
    for (const BigUint& r : {BigUint(0), p, q.Mul(BigUint(5)), n.Sub(p),
                             n.Sub(BigUint(1)), BigUint::RandomBelow(rng, n)}) {
      ExpectDivisibilityMatchesMod(built, r);
    }
    const bool tiny = n.BitLength() <= 16;
    std::vector<BigUint> ms = {BigUint(0), BigUint(1), n.Sub(BigUint(1))};
    while (ms.size() < (tiny ? 2000u : 12u)) {
      ms.push_back(BigUint::RandomBelow(rng, n));
    }
    const TextbookPaillier textbook(built);
    for (const PaillierKeyPair* key : {&built, &*parsed}) {
      const std::string where =
          "n=" + n.ToHexString() + (key == &built ? " built" : " parsed");
      const Bytes seed = rng.NextBytes(32);
      SecureRng public_rng(seed);
      SecureRng crt_rng(seed);
      std::vector<BigUint> want = key->pub.EncryptBatch(ms, public_rng);
      std::vector<BigUint> got = key->priv.EncryptBatch(ms, crt_rng);
      ASSERT_EQ(got, want) << where;
      for (size_t i = 0; i < 3; ++i) {  // the single-element form, on the caller's rng
        ASSERT_EQ(key->priv.Encrypt(ms[i], crt_rng), key->pub.Encrypt(ms[i], public_rng))
            << where << " i=" << i;
      }
      EXPECT_EQ(crt_rng.NextBytes(32), public_rng.NextBytes(32)) << where;
      got.push_back(BigUint(1));
      ms.push_back(BigUint(0));
      const std::vector<BigUint> plains = key->priv.DecryptBatch(got);
      ASSERT_EQ(plains, ms) << where;
      for (size_t i = 0; i < got.size(); i += tiny ? 37 : 1) {
        ASSERT_EQ(key->priv.Decrypt(got[i]), textbook.Decrypt(got[i]))
            << where << " i=" << i;
      }
      ms.pop_back();
    }
  }
}

// FromPrimes refuses primes of unequal bit length (keygen never draws them): with them
// m < n could exceed 2p^2 and p^2 could exceed 4q^2, and their limb counts could differ.
// A key codec blob that carries such primes fails to parse, as any other invalid key.
TEST(PaillierCrtJoinTest, FromPrimesRefusesPrimesOfUnequalLength) {
  SecureRng rng(StringToBytes("crt-unequal"));
  for (auto [p_bits, q_bits] : {std::pair<size_t, size_t>{127, 128}, {128, 127}, {64, 65},
                                {120, 136}, {8, 248}}) {
    const BigUint p = BigUint::RandomPrime(rng, p_bits);
    const BigUint q = BigUint::RandomPrime(rng, q_bits);
    PaillierPublicKey pub(p.Mul(q));
    EXPECT_FALSE(PaillierPrivateKey::FromPrimes(pub, Secret<BigUint>(p), Secret<BigUint>(q))
                     .has_value())
        << p_bits << " and " << q_bits << " bits";
    net::Writer blob;
    blob.WriteU32(3);
    blob.WriteBytes(pub.n().ToBytes());
    blob.WriteBytes(p.ToBytes());
    blob.WriteBytes(q.ToBytes());
    EXPECT_FALSE(persist::ParsePaillierKey(blob.Take()).has_value())
        << p_bits << " and " << q_bits << " bits";
  }
  // Equal lengths, the control: the same blob layout parses.
  const BigUint p = BigUint::RandomPrime(rng, 128);
  BigUint q = BigUint::RandomPrime(rng, 128);
  while (q == p) {
    q = BigUint::RandomPrime(rng, 128);
  }
  net::Writer blob;
  blob.WriteU32(3);
  blob.WriteBytes(p.Mul(q).ToBytes());
  blob.WriteBytes(p.ToBytes());
  blob.WriteBytes(q.ToBytes());
  EXPECT_TRUE(persist::ParsePaillierKey(blob.Take()).has_value());
}

}  // namespace
}  // namespace deta::crypto
