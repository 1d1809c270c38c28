#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "crypto/bigint.h"
#include "crypto/chacha20.h"

namespace deta::crypto {
namespace {

TEST(BigUintTest, ConstructionAndU64) {
  EXPECT_TRUE(BigUint().IsZero());
  EXPECT_EQ(BigUint(0).ToU64(), 0u);
  EXPECT_EQ(BigUint(42).ToU64(), 42u);
  EXPECT_EQ(BigUint(0xffffffffffffffffULL).ToU64(), 0xffffffffffffffffULL);
}

TEST(BigUintTest, HexRoundTrip) {
  for (const char* hex : {"0", "1", "ff", "deadbeef", "123456789abcdef0fedcba9876543210"}) {
    BigUint v = BigUint::FromHexString(hex);
    EXPECT_EQ(v.ToHexString(), hex);
  }
}

TEST(BigUintTest, BytesRoundTrip) {
  Bytes be = FromHex("0102030405060708090a0b0c0d0e0f10");
  BigUint v = BigUint::FromBytes(be);
  EXPECT_EQ(v.ToBytes(), be);
  EXPECT_EQ(v.ToBytesPadded(20).size(), 20u);
  EXPECT_EQ(BigUint::FromBytes(v.ToBytesPadded(20)), v);
}

TEST(BigUintTest, PaddedTooSmallThrows) {
  EXPECT_THROW(BigUint::FromHexString("ffff").ToBytesPadded(1), CheckFailure);
}

TEST(BigUintTest, BitLength) {
  EXPECT_EQ(BigUint().BitLength(), 0u);
  EXPECT_EQ(BigUint(1).BitLength(), 1u);
  EXPECT_EQ(BigUint(255).BitLength(), 8u);
  EXPECT_EQ(BigUint(256).BitLength(), 9u);
  EXPECT_EQ(BigUint::FromHexString("80000000000000000").BitLength(), 68u);
}

TEST(BigUintTest, Comparisons) {
  BigUint a(100), b(200);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(b > a);
  EXPECT_TRUE(a <= a);
  EXPECT_TRUE(a >= a);
  EXPECT_TRUE(a == a);
  EXPECT_TRUE(a != b);
}

TEST(BigUintTest, SubUnderflowThrows) {
  EXPECT_THROW(BigUint(1).Sub(BigUint(2)), CheckFailure);
}

TEST(BigUintTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigUint(1).DivMod(BigUint()), CheckFailure);
}

TEST(BigUintTest, ShiftRoundTrip) {
  BigUint v = BigUint::FromHexString("123456789abcdef");
  for (size_t bits : {1u, 7u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(v.ShiftLeft(bits).ShiftRight(bits), v) << bits;
  }
  EXPECT_TRUE(BigUint(1).ShiftRight(1).IsZero());
}

// Randomized agreement with native 64-bit arithmetic.
TEST(BigUintTest, RandomizedSmallAgainstNative) {
  SecureRng rng(StringToBytes("bigint-small"));
  for (int i = 0; i < 3000; ++i) {
    uint64_t a = rng.NextU64() >> (rng.NextU64() % 33);
    uint64_t b = rng.NextU64() >> (rng.NextU64() % 33);
    BigUint A(a), B(b);
    EXPECT_EQ((A.Add(B)).ToU64(), a + b);
    if (a >= b) {
      EXPECT_EQ(A.Sub(B).ToU64(), a - b);
    }
    EXPECT_EQ(A.Mul(B).ToU64(), a * b);  // mod 2^64 agreement
    if (b != 0) {
      auto qr = A.DivMod(B);
      EXPECT_EQ(qr.quotient.ToU64(), a / b);
      EXPECT_EQ(qr.remainder.ToU64(), a % b);
    }
  }
}

// Property: for random multi-limb a, b: a = q*b + r with r < b.
TEST(BigUintTest, DivModInvariantLarge) {
  SecureRng rng(StringToBytes("bigint-large"));
  for (int i = 0; i < 400; ++i) {
    BigUint a = BigUint::RandomBits(rng, 200 + static_cast<size_t>(i % 300));
    BigUint b = BigUint::RandomBits(rng, 30 + static_cast<size_t>(i % 250));
    auto qr = a.DivMod(b);
    EXPECT_TRUE(qr.remainder < b);
    EXPECT_EQ(qr.quotient.Mul(b).Add(qr.remainder), a);
  }
}

// Knuth algorithm D's add-back branch needs specially crafted inputs; exercise the
// neighborhood with divisors just below limb boundaries.
TEST(BigUintTest, DivModEdgePatterns) {
  std::vector<std::string> dividends = {
      "ffffffffffffffffffffffffffffffff", "80000000000000000000000000000000",
      "fffffffeffffffffffffffffffffffff", "100000000000000000000000000000000"};
  std::vector<std::string> divisors = {"ffffffffffffffff", "8000000000000001",
                                       "ffffffff00000001", "100000001"};
  for (const auto& dh : dividends) {
    for (const auto& vh : divisors) {
      BigUint a = BigUint::FromHexString(dh);
      BigUint b = BigUint::FromHexString(vh);
      auto qr = a.DivMod(b);
      EXPECT_TRUE(qr.remainder < b);
      EXPECT_EQ(qr.quotient.Mul(b).Add(qr.remainder), a);
    }
  }
}

TEST(BigUintTest, PowModKnownValues) {
  EXPECT_THROW(BigUint::PowMod(3, 20, 1000), CheckFailure);  // even modulus
  EXPECT_EQ(BigUint::PowMod(2, 10, 1025).ToU64(), 1024u);
  EXPECT_EQ(BigUint::PowMod(5, 0, 7).ToU64(), 1u);
  EXPECT_TRUE(BigUint::PowMod(5, 100, 1).IsZero());
}

// Fermat's little theorem as a property test: a^(p-1) = 1 mod p for prime p.
TEST(BigUintTest, FermatLittleTheorem) {
  SecureRng rng(StringToBytes("fermat"));
  BigUint p = BigUint::RandomPrime(rng, 128);
  for (int i = 0; i < 10; ++i) {
    BigUint a = BigUint::RandomBelow(rng, p.Sub(BigUint(2))).Add(BigUint(1));
    EXPECT_EQ(BigUint::PowMod(a, p.Sub(BigUint(1)), p), BigUint(1));
  }
}

TEST(BigUintTest, InvModCorrect) {
  BigUint inv;
  ASSERT_TRUE(BigUint::InvMod(BigUint(3), BigUint(7), &inv));
  EXPECT_EQ(inv.ToU64(), 5u);
  // Non-invertible: gcd(4, 8) != 1.
  EXPECT_FALSE(BigUint::InvMod(BigUint(4), BigUint(8), &inv));
}

TEST(BigUintTest, InvModRandomized) {
  SecureRng rng(StringToBytes("invmod"));
  BigUint m = BigUint::RandomPrime(rng, 96);
  for (int i = 0; i < 50; ++i) {
    BigUint a = BigUint::RandomBelow(rng, m.Sub(BigUint(1))).Add(BigUint(1));
    BigUint inv;
    ASSERT_TRUE(BigUint::InvMod(a, m, &inv));
    EXPECT_EQ(BigUint::MulMod(a, inv, m), BigUint(1));
  }
}

TEST(BigUintTest, GcdLcm) {
  EXPECT_EQ(BigUint::Gcd(BigUint(12), BigUint(18)).ToU64(), 6u);
  EXPECT_EQ(BigUint::Gcd(BigUint(17), BigUint(5)).ToU64(), 1u);
  EXPECT_EQ(BigUint::Gcd(BigUint(0), BigUint(5)).ToU64(), 5u);
}

// Euclid's algorithm by remainders, the implementation the binary GCD replaced: the
// oracle BigUint::Gcd is checked against.
BigUint EuclidGcd(BigUint a, BigUint b) {
  while (!b.IsZero()) {
    BigUint r = a.Mod(b);
    a = b;
    b = r;
  }
  return a;
}

TEST(BigUintGcdTest, MatchesEuclidOracle) {
  SecureRng rng(StringToBytes("gcd-oracle"));
  auto random_bits = [&](size_t max_bits) {
    return BigUint::RandomBits(rng, 1 + rng.NextBelow(max_bits));
  };
  auto check = [](const BigUint& a, const BigUint& b) {
    BigUint expected = EuclidGcd(a, b);
    ASSERT_EQ(BigUint::Gcd(a, b), expected) << a.ToHexString() << " " << b.ToHexString();
    ASSERT_EQ(BigUint::Gcd(b, a), expected) << a.ToHexString() << " " << b.ToHexString();
  };
  int pairs = 0;
  for (int i = 0; i < 3400; ++i) {
    BigUint a = random_bits(600);
    BigUint b = random_bits(600);
    check(a, b);
    // A shared odd factor, so the result is not 1.
    BigUint f = random_bits(200);
    f = f.IsOdd() ? f : f.Add(BigUint(1));
    check(a.Mul(f), b.Mul(f));
    // Shared and unshared powers of two on top of the shared odd factor.
    size_t k = rng.NextBelow(size_t{140});
    size_t j = rng.NextBelow(size_t{140});
    check(a.Mul(f).ShiftLeft(k), b.Mul(f).ShiftLeft(j));
    pairs += 3;
  }
  EXPECT_GE(pairs, 10000);
}

TEST(BigUintGcdTest, EdgeCases) {
  SecureRng rng(StringToBytes("gcd-edges"));
  EXPECT_TRUE(BigUint::Gcd(BigUint(0), BigUint(0)).IsZero());
  for (size_t bits : {size_t{1}, size_t{31}, size_t{64}, size_t{65}, size_t{256}}) {
    BigUint x = BigUint::RandomBits(rng, bits);
    EXPECT_EQ(BigUint::Gcd(BigUint(0), x), x) << bits;
    EXPECT_EQ(BigUint::Gcd(x, BigUint(0)), x) << bits;
    EXPECT_EQ(BigUint::Gcd(x, x), x) << bits;
  }
  for (size_t k : {size_t{0}, size_t{1}, size_t{31}, size_t{32}, size_t{63}, size_t{64},
                   size_t{65}, size_t{128}, size_t{200}}) {
    for (size_t j : {size_t{0}, size_t{5}, size_t{63}, size_t{64}, size_t{129}}) {
      EXPECT_EQ(BigUint::Gcd(BigUint(1).ShiftLeft(k), BigUint(1).ShiftLeft(j)),
                BigUint(1).ShiftLeft(std::min(k, j)))
          << k << " " << j;
    }
  }
}

TEST(BigUintTest, MillerRabinKnownPrimes) {
  SecureRng rng(StringToBytes("mr"));
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 17ULL, 97ULL, 7919ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigUint::IsProbablePrime(BigUint(p), rng)) << p;
  }
  for (uint64_t c : {1ULL, 4ULL, 100ULL, 561ULL /* Carmichael */, 7917ULL,
                     2147483647ULL * 3}) {
    EXPECT_FALSE(BigUint::IsProbablePrime(BigUint(c), rng)) << c;
  }
}

TEST(BigUintTest, RandomPrimeHasExactBitLength) {
  SecureRng rng(StringToBytes("prime"));
  for (size_t bits : {32u, 64u, 128u}) {
    BigUint p = BigUint::RandomPrime(rng, bits);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(BigUint::IsProbablePrime(p, rng));
  }
}

TEST(BigUintTest, RandomBelowUniformSupport) {
  SecureRng rng(StringToBytes("below"));
  BigUint bound(100);
  std::vector<int> seen(100, 0);
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = BigUint::RandomBelow(rng, bound).ToU64();
    ASSERT_LT(v, 100u);
    seen[v]++;
  }
  // All residues hit at least once with overwhelming probability.
  for (int i = 0; i < 100; ++i) {
    EXPECT_GT(seen[static_cast<size_t>(i)], 0) << i;
  }
}

TEST(BigUintTest, ModularArithmeticIdentities) {
  SecureRng rng(StringToBytes("modarith"));
  BigUint m = BigUint::RandomBits(rng, 150);
  for (int i = 0; i < 50; ++i) {
    BigUint a = BigUint::RandomBelow(rng, m);
    BigUint b = BigUint::RandomBelow(rng, m);
    // (a + b) - b = a mod m
    EXPECT_EQ(BigUint::SubMod(BigUint::AddMod(a, b, m), b, m), a);
    // a * b mod m == b * a mod m
    EXPECT_EQ(BigUint::MulMod(a, b, m), BigUint::MulMod(b, a, m));
  }
}

}  // namespace
}  // namespace deta::crypto
