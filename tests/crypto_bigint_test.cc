#include <gtest/gtest.h>

#include <algorithm>

#include "common/check.h"
#include "crypto/bigint.h"
#include "crypto/chacha20.h"
#include "crypto/sha256.h"

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

// Divisors just below limb boundaries, around algorithm D's add-back branch
// (DivModAddBackMatchesLongDivision reaches the branch itself).
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

// Schoolbook binary long division on hex strings, one bit at a time: the oracle for
// DivMod that shares no arithmetic with BigUint. Returns {quotient, remainder} in
// lowercase hex without leading zeros.
std::pair<std::string, std::string> LongDivisionHex(const std::string& a_hex,
                                                    const std::string& b_hex) {
  auto to_bits = [](const std::string& hex) {  // most significant bit first
    std::vector<int> bits;
    for (char c : hex) {
      int digit = std::stoi(std::string(1, c), nullptr, 16);
      for (int shift = 3; shift >= 0; --shift) {
        bits.push_back((digit >> shift) & 1);
      }
    }
    return bits;
  };
  auto to_hex = [](std::vector<int> bits) {
    while (bits.size() % 4 != 0) {
      bits.insert(bits.begin(), 0);
    }
    std::string hex;
    for (size_t i = 0; i < bits.size(); i += 4) {
      hex.push_back("0123456789abcdef"[bits[i] * 8 + bits[i + 1] * 4 + bits[i + 2] * 2 +
                                       bits[i + 3]]);
    }
    size_t first = hex.find_first_not_of('0');
    return first == std::string::npos ? std::string("0") : hex.substr(first);
  };
  std::vector<int> a = to_bits(a_hex);
  std::vector<int> b = to_bits(b_hex);
  // The remainder and divisor share a width one bit wider than the divisor, so the
  // shifted-in remainder (below 2b) always fits.
  const size_t width = b.size() + 1;
  b.insert(b.begin(), 1, 0);
  std::vector<int> r(width, 0);
  std::vector<int> q;
  for (int bit : a) {
    r.erase(r.begin());
    r.push_back(bit);
    bool ge = !std::lexicographical_compare(r.begin(), r.end(), b.begin(), b.end());
    if (ge) {
      int borrow = 0;
      for (size_t i = width; i-- > 0;) {
        int d = r[i] - b[i] - borrow;
        borrow = d < 0 ? 1 : 0;
        r[i] = d & 1;
      }
    }
    q.push_back(ge ? 1 : 0);
  }
  return {to_hex(q), to_hex(r)};
}

// Operands that send algorithm D through its add-back step (qhat one too large after
// the two-limb test) once each, at 32- and at 64-bit limbs; random operands reach it
// with probability about 2 / 2^w per quotient digit.
TEST(BigUintTest, DivModAddBackMatchesLongDivision) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"80000000000000010000000000000000ffffffffffffffffc000000000000000",
       "80000000000000000000000000000000fffffffffffffffe"},
      {"7fffffffffffffffffffffffffffffff80000000000000004000000000000000",
       "7fffffffffffffffffffffffffffffffffffffffffffffff"},
  };
  for (const auto& [a_hex, b_hex] : pairs) {
    auto [q_hex, r_hex] = LongDivisionHex(a_hex, b_hex);
    auto qr = BigUint::FromHexString(a_hex).DivMod(BigUint::FromHexString(b_hex));
    EXPECT_EQ(qr.quotient.ToHexString(), q_hex) << a_hex << " / " << b_hex;
    EXPECT_EQ(qr.remainder.ToHexString(), r_hex) << a_hex << " % " << b_hex;
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

// A seeded operand of 1-2,100 bits: random bits, all ones, a power of two, or random
// limbs with whole 32-bit halves forced to zero or all ones (rounded up to a whole
// 32-bit half), at a random length or within one bit of a 64-bit boundary. One rng
// draw per statement, so the sequence does not depend on evaluation order.
BigUint KnownAnswerOperand(SecureRng& rng) {
  size_t bits = 1 + rng.NextBelow(2100);
  if (rng.NextBelow(4) == 0) {
    size_t limbs = 1 + rng.NextBelow(32);
    bits = 64 * limbs + rng.NextBelow(3) - 1;
  }
  switch (rng.NextBelow(4)) {
    case 0:
      return BigUint::RandomBits(rng, bits);
    case 1:
      return BigUint(1).ShiftLeft(bits).Sub(BigUint(1));
    case 2:
      return BigUint(1).ShiftLeft(bits - 1);
    default: {
      Bytes raw = BigUint::RandomBits(rng, bits).ToBytesPadded((bits + 31) / 32 * 4);
      for (size_t i = 0; i < raw.size(); i += 4) {
        uint64_t pick = rng.NextBelow(4);
        if (pick < 2) {
          std::fill(raw.begin() + static_cast<long>(i), raw.begin() + static_cast<long>(i) + 4,
                    pick == 0 ? uint8_t{0x00} : uint8_t{0xff});
        }
      }
      BigUint v = BigUint::FromBytes(raw);
      return v.IsZero() ? BigUint(1) : v;
    }
  }
}

// SHA-256 over every BigUint operation on seeded operands of 1-2,100 bits: Add, Sub,
// Mul, DivMod (multi-limb and single-limb divisors), the shifts, MulMod, InvMod, Gcd,
// PowMod over odd moduli, byte and hex I/O and BitLength. The digest was computed by
// the 32-bit-limb BigUint; any result that moves changes it.
TEST(BigUintTest, KnownAnswerDigest) {
  SecureRng rng(StringToBytes("biguint-known-answer"));
  Bytes transcript;
  auto put_bytes = [&](const Bytes& b) {
    for (int shift = 0; shift < 32; shift += 8) {
      transcript.push_back(static_cast<uint8_t>(b.size() >> shift));
    }
    transcript.insert(transcript.end(), b.begin(), b.end());
  };
  auto put = [&](const BigUint& x) { put_bytes(x.ToBytes()); };
  for (int i = 0; i < 96; ++i) {
    BigUint a = KnownAnswerOperand(rng);
    BigUint b = KnownAnswerOperand(rng);
    BigUint m = KnownAnswerOperand(rng);
    if (!m.IsOdd()) {
      m = m.Add(BigUint(1));
    }
    if (m == BigUint(1)) {
      m = BigUint(3);
    }
    put(a.Add(b));
    put(a >= b ? a.Sub(b) : b.Sub(a));
    put(a.Mul(b));
    auto qr = a.DivMod(b);
    put(qr.quotient);
    put(qr.remainder);
    BigUint small = BigUint::RandomBits(rng, 1 + rng.NextBelow(64));
    qr = a.Mul(b).DivMod(small);
    put(qr.quotient);
    put(qr.remainder);
    size_t shift = rng.NextBelow(200);
    put(a.ShiftLeft(shift));
    put(a.ShiftRight(shift));
    put(BigUint::MulMod(a, b, m));
    BigUint inv;
    bool invertible = BigUint::InvMod(a, m, &inv);
    put(BigUint(invertible ? 1 : 0));
    put(inv);
    put(BigUint::Gcd(a, b));
    put(BigUint::Gcd(a.Mul(m), b.Mul(m)));
    BigUint e = BigUint::RandomBits(rng, 1 + rng.NextBelow(320));
    put(BigUint::PowMod(a, e, m));
    put(BigUint::PowMod(a, m.Sub(BigUint(1)), m));
    Bytes raw = rng.NextBytes(rng.NextBelow(270));
    BigUint from_raw = BigUint::FromBytes(raw);
    put(from_raw);
    put_bytes(from_raw.ToBytesPadded(raw.size() + 3));
    std::string hex = a.Mul(b).ToHexString();
    put_bytes(Bytes(hex.begin(), hex.end()));
    put(BigUint::FromHexString(hex));
    put(BigUint(a.BitLength()));
  }
  EXPECT_EQ(ToHex(Sha256Digest(transcript)),
            "ef112a503d70db7563292b24ba26dc2d18cf5338dfd30ac133b006956dc0b5ac");
}

// Wipe zeroes every byte of every limb in place: the storage the value occupied reads
// back as zero, and clear() keeps that storage allocated, so the read is of the
// wiped buffer itself.
TEST(BigUintTest, WipeZeroesEveryLimb) {
  SecureRng rng(StringToBytes("biguint-wipe"));
  BigUint v = BigUint::RandomBits(rng, 1024);
  const auto* data = v.limbs().data();
  const size_t bytes = v.limbs().size() * sizeof(v.limbs()[0]);
  ASSERT_EQ(bytes, 128u);
  v.Wipe();
  EXPECT_TRUE(v.IsZero());
  ASSERT_EQ(v.limbs().data(), data);
  const auto* raw = reinterpret_cast<const uint8_t*>(data);
  EXPECT_TRUE(std::all_of(raw, raw + bytes, [](uint8_t byte) { return byte == 0; }));
}

}  // namespace
}  // namespace deta::crypto
