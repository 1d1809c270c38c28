// secp256k1 and ECDSA tests. The fixed-width point arithmetic in src/crypto/ec.cc is
// checked against the textbook affine formulas kept below as the differential oracle
// (one BigUint InvMod per addition or doubling, about 50 ms per full multiplication):
// full oracle multiplications for a few dozen scalars, one oracle step each for ten
// thousand more, the edge scalars, and a known-answer digest that pins keys, signatures
// and ECDH secrets to the bytes the affine implementation produced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "crypto/ec.h"
#include "crypto/ecdsa.h"
#include "crypto/sha256.h"

namespace deta::crypto {
namespace {

const Secp256k1& Curve() { return Secp256k1::Instance(); }

// --- Oracle: affine double-and-add over BigUint. ---

EcPoint OracleDouble(const EcPoint& a) {
  const BigUint& p = Curve().p();
  if (a.is_infinity || a.y.IsZero()) {
    return EcPoint{};
  }
  // lambda = 3x^2 / 2y
  BigUint three_x2 = BigUint::MulMod(BigUint(3), BigUint::MulMod(a.x, a.x, p), p);
  BigUint two_y = BigUint::AddMod(a.y, a.y, p);
  BigUint inv;
  DETA_CHECK(BigUint::InvMod(two_y, p, &inv));
  BigUint lambda = BigUint::MulMod(three_x2, inv, p);

  BigUint x3 =
      BigUint::SubMod(BigUint::MulMod(lambda, lambda, p), BigUint::AddMod(a.x, a.x, p), p);
  BigUint y3 =
      BigUint::SubMod(BigUint::MulMod(lambda, BigUint::SubMod(a.x, x3, p), p), a.y, p);
  return EcPoint{x3, y3, false};
}

EcPoint OracleAdd(const EcPoint& a, const EcPoint& b) {
  const BigUint& p = Curve().p();
  if (a.is_infinity) {
    return b;
  }
  if (b.is_infinity) {
    return a;
  }
  if (a.x == b.x) {
    if (a.y == b.y) {
      return OracleDouble(a);
    }
    return EcPoint{};  // inverse points
  }
  BigUint num = BigUint::SubMod(b.y, a.y, p);
  BigUint den = BigUint::SubMod(b.x, a.x, p);
  BigUint inv;
  DETA_CHECK(BigUint::InvMod(den, p, &inv));
  BigUint lambda = BigUint::MulMod(num, inv, p);

  BigUint x3 =
      BigUint::SubMod(BigUint::MulMod(lambda, lambda, p), BigUint::AddMod(a.x, b.x, p), p);
  BigUint y3 =
      BigUint::SubMod(BigUint::MulMod(lambda, BigUint::SubMod(a.x, x3, p), p), a.y, p);
  return EcPoint{x3, y3, false};
}

EcPoint OracleMul(const BigUint& k, const EcPoint& pt) {
  EcPoint result;  // infinity
  EcPoint addend = pt;
  size_t bits = k.BitLength();
  for (size_t i = 0; i < bits; ++i) {
    if (k.Bit(i)) {
      result = OracleAdd(result, addend);
    }
    addend = OracleDouble(addend);
  }
  return result;
}

EcPoint Negate(const EcPoint& a) {
  if (a.is_infinity) {
    return a;
  }
  return EcPoint{a.x, Curve().p().Sub(a.y), false};
}

BigUint RandomScalar(SecureRng& rng) { return BigUint::RandomBelow(rng, Curve().n()); }

// --- Group laws and encodings. ---

TEST(EcTest, GeneratorOnCurve) {
  EXPECT_TRUE(Curve().IsOnCurve(Curve().generator()));
}

TEST(EcTest, InfinityIdentities) {
  EcPoint inf;
  EXPECT_TRUE(Curve().IsOnCurve(inf));
  EXPECT_EQ(OracleAdd(inf, Curve().generator()), Curve().generator());
  EXPECT_EQ(OracleAdd(Curve().generator(), inf), Curve().generator());
  EXPECT_TRUE(Curve().Mul(BigUint(5), inf).is_infinity);
  EXPECT_EQ(Curve().MulAdd(BigUint(1), BigUint(5), inf), Curve().generator());
}

TEST(EcTest, OrderTimesGeneratorIsInfinity) {
  EcPoint result = Curve().MulGenerator(Curve().n());
  EXPECT_TRUE(result.is_infinity);
}

TEST(EcTest, KnownMultiple2G) {
  // 2G for secp256k1 (public test vector).
  for (const EcPoint& two_g :
       {Curve().MulGenerator(BigUint(2)), OracleDouble(Curve().generator())}) {
    EXPECT_EQ(two_g.x.ToHexString(),
              "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
    EXPECT_EQ(two_g.y.ToHexString(),
              "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
  }
}

TEST(EcTest, AdditionCommutesAndAssociates) {
  SecureRng rng(StringToBytes("ec"));
  BigUint a = BigUint::RandomBelow(rng, Curve().n());
  BigUint b = BigUint::RandomBelow(rng, Curve().n());
  BigUint c = BigUint::RandomBelow(rng, Curve().n());
  EcPoint p = Curve().MulGenerator(a);
  EcPoint q = Curve().MulGenerator(b);
  EcPoint r = Curve().MulGenerator(c);
  EXPECT_EQ(OracleAdd(p, q), OracleAdd(q, p));
  EXPECT_EQ(OracleAdd(OracleAdd(p, q), r), OracleAdd(p, OracleAdd(q, r)));
  // The two-scalar path adds the same way: aG + 1q == p + q == bG + 1p.
  EXPECT_EQ(Curve().MulAdd(a, BigUint(1), q), OracleAdd(p, q));
  EXPECT_EQ(Curve().MulAdd(b, BigUint(1), p), OracleAdd(p, q));
}

TEST(EcTest, ScalarMulDistributes) {
  SecureRng rng(StringToBytes("ec2"));
  BigUint a = BigUint::RandomBelow(rng, BigUint(1000000));
  BigUint b = BigUint::RandomBelow(rng, BigUint(1000000));
  // (a + b) G == aG + bG
  EcPoint lhs = Curve().MulGenerator(a.Add(b));
  EXPECT_EQ(lhs, OracleAdd(Curve().MulGenerator(a), Curve().MulGenerator(b)));
  EXPECT_EQ(lhs, Curve().MulAdd(a, b, Curve().generator()));
}

TEST(EcTest, EncodeDecodeRoundTrip) {
  SecureRng rng(StringToBytes("ec3"));
  EcKeyPair key = GenerateEcKey(rng);
  Bytes encoded = Curve().Encode(key.public_key);
  EXPECT_EQ(encoded.size(), 65u);
  EXPECT_EQ(encoded[0], 0x04);
  auto decoded = Curve().Decode(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, key.public_key);
  // Infinity encodes to a single zero byte.
  EXPECT_EQ(Curve().Encode(EcPoint{}), Bytes{0x00});
  EXPECT_TRUE(Curve().Decode(Bytes{0x00})->is_infinity);
}

// (1, y) is on the curve; (1 + p, y) satisfies the curve equation mod p but is not a
// canonical encoding (SEC 1 §2.3.4 requires x, y < p).
EcPoint PointWithXOne() {
  const BigUint& p = Curve().p();
  // p = 3 (mod 4), so sqrt(8) = 8^((p + 1) / 4).
  BigUint y = BigUint::PowMod(BigUint(8), p.Add(BigUint(1)).ShiftRight(2), p);
  DETA_CHECK(BigUint::MulMod(y, y, p) == BigUint(8));
  return EcPoint{BigUint(1), y, false};
}

Bytes EncodeRaw(const BigUint& x, const BigUint& y) {
  Bytes out{0x04};
  Bytes xb = x.ToBytesPadded(32);
  Bytes yb = y.ToBytesPadded(32);
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

TEST(EcTest, DecodeRejectsOffCurvePoint) {
  Bytes bogus(65, 0x01);
  bogus[0] = 0x04;
  EXPECT_FALSE(Curve().Decode(bogus).has_value());
  EXPECT_FALSE(Curve().Decode(Bytes{0x01, 0x02}).has_value());
  EcPoint one = PointWithXOne();
  ASSERT_TRUE(Curve().Decode(EncodeRaw(one.x, one.y)).has_value());
  EXPECT_FALSE(Curve().Decode(EncodeRaw(one.x.Add(Curve().p()), one.y)).has_value());
}

TEST(EcdhTest, RejectsNonCanonicalPeer) {
  SecureRng rng(StringToBytes("ecdh-alias"));
  EcKeyPair key = GenerateEcKey(rng);
  EcPoint one = PointWithXOne();
  EcPoint alias{one.x.Add(Curve().p()), one.y, false};
  EXPECT_FALSE(Curve().IsOnCurve(alias));
  EXPECT_THROW(EcdhSharedSecret(key.private_key, alias), CheckFailure);
  EXPECT_EQ(EcdhSharedSecret(key.private_key, one).size(), 32u);
}

// --- Differential tests against the oracle. ---

TEST(EcDifferentialTest, FullMultiplicationsMatchOracle) {
  SecureRng rng(StringToBytes("ec-full"));
  const EcPoint& g = Curve().generator();
  for (int i = 0; i < 12; ++i) {
    BigUint k = RandomScalar(rng);
    EXPECT_EQ(Curve().MulGenerator(k), OracleMul(k, g)) << "k = " << k.ToHexString();
  }
  for (int i = 0; i < 12; ++i) {
    EcPoint pt = Curve().MulGenerator(RandomScalar(rng));
    BigUint k = RandomScalar(rng);
    EXPECT_EQ(Curve().Mul(k, pt), OracleMul(k, pt)) << "k = " << k.ToHexString();
  }
  for (int i = 0; i < 6; ++i) {
    EcPoint q = Curve().MulGenerator(RandomScalar(rng));
    BigUint u1 = RandomScalar(rng);
    BigUint u2 = RandomScalar(rng);
    EXPECT_EQ(Curve().MulAdd(u1, u2, q), OracleAdd(OracleMul(u1, g), OracleMul(u2, q)))
        << "u1 = " << u1.ToHexString() << ", u2 = " << u2.ToHexString();
  }
}

// 4,000 + 3,000 + 3,000 random cases, one oracle step each.
TEST(EcDifferentialTest, GeneratorStepsMatchOracle) {
  SecureRng rng(StringToBytes("ec-step-g"));
  for (int i = 0; i < 4000; ++i) {
    BigUint k = RandomScalar(rng);
    ASSERT_EQ(Curve().MulGenerator(k.Add(BigUint(1))),
              OracleAdd(Curve().MulGenerator(k), Curve().generator()))
        << "k = " << k.ToHexString();
  }
}

TEST(EcDifferentialTest, DoublingStepsMatchOracle) {
  SecureRng rng(StringToBytes("ec-step-dbl"));
  for (int i = 0; i < 3000; ++i) {
    EcPoint pt = Curve().MulGenerator(RandomScalar(rng));
    // 2k is left unreduced, so about half the cases also cover scalars >= n.
    BigUint k = RandomScalar(rng);
    ASSERT_EQ(Curve().Mul(k.Add(k), pt), OracleDouble(Curve().Mul(k, pt)))
        << "k = " << k.ToHexString();
  }
}

TEST(EcDifferentialTest, TwoScalarStepsMatchOracle) {
  SecureRng rng(StringToBytes("ec-step-two"));
  for (int i = 0; i < 3000; ++i) {
    EcPoint q = Curve().MulGenerator(RandomScalar(rng));
    BigUint u1 = RandomScalar(rng);
    BigUint u2 = RandomScalar(rng);
    ASSERT_EQ(Curve().MulAdd(u1, u2, q),
              OracleAdd(Curve().MulGenerator(u1), Curve().Mul(u2, q)))
        << "u1 = " << u1.ToHexString() << ", u2 = " << u2.ToHexString();
  }
}

TEST(EcDifferentialTest, EdgeScalars) {
  const BigUint& n = Curve().n();
  const EcPoint& g = Curve().generator();
  SecureRng rng(StringToBytes("ec-edge"));
  EcPoint pt = Curve().MulGenerator(RandomScalar(rng));
  EcPoint q = Curve().MulGenerator(RandomScalar(rng));
  // (k, expected k*G, expected k*pt): k >= n acts as k mod n.
  struct Case {
    BigUint k;
    EcPoint kg;
    EcPoint kpt;
  };
  const std::vector<Case> cases = {
      {BigUint(0), EcPoint{}, EcPoint{}},
      {BigUint(1), g, pt},
      {BigUint(2), OracleDouble(g), OracleDouble(pt)},
      {n.Sub(BigUint(1)), Negate(g), Negate(pt)},
      {n, EcPoint{}, EcPoint{}},
      {n.Add(BigUint(1)), g, pt},
      {n.Add(n).Add(BigUint(2)), OracleDouble(g), OracleDouble(pt)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("k = " + c.k.ToHexString());
    EXPECT_EQ(Curve().MulGenerator(c.k), c.kg);
    EXPECT_EQ(Curve().Mul(c.k, g), c.kg);
    EXPECT_EQ(Curve().Mul(c.k, pt), c.kpt);
    EXPECT_EQ(Curve().MulAdd(c.k, BigUint(0), q), c.kg);
    EXPECT_EQ(Curve().MulAdd(BigUint(0), c.k, pt), c.kpt);
  }
}

// Q = G and Q = -G make the two-scalar loop add a point to itself or to its inverse.
TEST(EcDifferentialTest, TwoScalarDoublingAndInverseBranches) {
  const BigUint& n = Curve().n();
  const EcPoint& g = Curve().generator();
  const EcPoint minus_g = Negate(g);
  SecureRng rng(StringToBytes("ec-branches"));
  for (int i = 0; i < 8; ++i) {
    BigUint u = RandomScalar(rng);
    BigUint v = RandomScalar(rng);
    SCOPED_TRACE("u = " + u.ToHexString() + ", v = " + v.ToHexString());
    EcPoint ug = Curve().MulGenerator(u);
    // Equal digits in every window: the first addition doubles, or cancels to infinity.
    EXPECT_EQ(Curve().MulAdd(u, u, g), OracleDouble(ug));
    EXPECT_TRUE(Curve().MulAdd(u, u, minus_g).is_infinity);
    EXPECT_EQ(Curve().MulAdd(u, v, g), Curve().MulGenerator(u.Add(v)));
    EXPECT_EQ(Curve().MulAdd(u, v, minus_g), Curve().MulGenerator(u.Add(n.Sub(v))));
    // u1 = 16h, u2 = n - 16h: before the last window the sum is (n - 1) G = -G and the
    // Jacobian-Jacobian addition of u2's last digit (1, so + G) cancels it.
    BigUint h16 = u.ShiftRight(4).ShiftLeft(4);
    EXPECT_TRUE(Curve().MulAdd(h16, n.Sub(h16), g).is_infinity);
  }
}

// SHA-256 over the encodings of 64 seeded public keys, one signature by each, and the
// ECDH secret of every pair. The digest was computed by the affine BigUint
// implementation this code replaced; any byte that moves changes it.
TEST(EcTest, KnownAnswerDigest) {
  SecureRng rng(StringToBytes("ec-known-answer"));
  std::vector<EcKeyPair> keys;
  for (int i = 0; i < 64; ++i) {
    keys.push_back(GenerateEcKey(rng));
  }
  Bytes transcript;
  auto append = [&](const Bytes& b) { transcript.insert(transcript.end(), b.begin(), b.end()); };
  for (size_t i = 0; i < keys.size(); ++i) {
    append(Curve().Encode(keys[i].public_key));
    append(EcdsaSign(keys[i].private_key, StringToBytes("known-answer " + std::to_string(i)))
               .Serialize());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    for (size_t j = i + 1; j < keys.size(); ++j) {
      append(EcdhSharedSecret(keys[i].private_key, keys[j].public_key));
    }
  }
  EXPECT_EQ(ToHex(Sha256Digest(transcript)),
            "3e2aee8ccacef4b1a25e04141c6dd66c79c3b354fe044c6497ca872ca462bb1e");
}

TEST(EcdhTest, SharedSecretAgreement) {
  SecureRng rng(StringToBytes("ecdh"));
  EcKeyPair alice = GenerateEcKey(rng);
  EcKeyPair bob = GenerateEcKey(rng);
  Bytes s1 = EcdhSharedSecret(alice.private_key, bob.public_key);
  Bytes s2 = EcdhSharedSecret(bob.private_key, alice.public_key);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 32u);
  // Third party derives something different.
  EcKeyPair eve = GenerateEcKey(rng);
  EXPECT_NE(EcdhSharedSecret(eve.private_key, bob.public_key), s1);
}

TEST(EcdsaTest, SignVerifyRoundTrip) {
  SecureRng rng(StringToBytes("ecdsa"));
  EcKeyPair key = GenerateEcKey(rng);
  Bytes message = StringToBytes("attest me");
  EcdsaSignature sig = EcdsaSign(key.private_key, message);
  EXPECT_TRUE(EcdsaVerify(key.public_key, message, sig));
}

TEST(EcdsaTest, VerifyRejectsWrongMessage) {
  SecureRng rng(StringToBytes("ecdsa2"));
  EcKeyPair key = GenerateEcKey(rng);
  EcdsaSignature sig = EcdsaSign(key.private_key, StringToBytes("hello"));
  EXPECT_FALSE(EcdsaVerify(key.public_key, StringToBytes("hellp"), sig));
}

TEST(EcdsaTest, VerifyRejectsWrongKey) {
  SecureRng rng(StringToBytes("ecdsa3"));
  EcKeyPair key = GenerateEcKey(rng);
  EcKeyPair other = GenerateEcKey(rng);
  Bytes message = StringToBytes("msg");
  EcdsaSignature sig = EcdsaSign(key.private_key, message);
  EXPECT_FALSE(EcdsaVerify(other.public_key, message, sig));
}

TEST(EcdsaTest, VerifyRejectsTamperedSignature) {
  SecureRng rng(StringToBytes("ecdsa4"));
  EcKeyPair key = GenerateEcKey(rng);
  Bytes message = StringToBytes("msg");
  EcdsaSignature sig = EcdsaSign(key.private_key, message);
  EcdsaSignature bad = sig;
  bad.s = bad.s.Add(BigUint(1));
  EXPECT_FALSE(EcdsaVerify(key.public_key, message, bad));
  EcdsaSignature zero;
  EXPECT_FALSE(EcdsaVerify(key.public_key, message, zero));
}

TEST(EcdsaTest, DeterministicSignatures) {
  // RFC 6979-style nonces: same key + message -> same signature (no RNG needed).
  SecureRng rng(StringToBytes("ecdsa5"));
  EcKeyPair key = GenerateEcKey(rng);
  Bytes message = StringToBytes("stable");
  EcdsaSignature s1 = EcdsaSign(key.private_key, message);
  EcdsaSignature s2 = EcdsaSign(key.private_key, message);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(EcdsaTest, SerializationRoundTrip) {
  SecureRng rng(StringToBytes("ecdsa6"));
  EcKeyPair key = GenerateEcKey(rng);
  EcdsaSignature sig = EcdsaSign(key.private_key, StringToBytes("wire"));
  Bytes wire = sig.Serialize();
  EXPECT_EQ(wire.size(), 64u);
  EcdsaSignature back = EcdsaSignature::Deserialize(wire);
  EXPECT_EQ(back.r, sig.r);
  EXPECT_EQ(back.s, sig.s);
}

}  // namespace
}  // namespace deta::crypto
