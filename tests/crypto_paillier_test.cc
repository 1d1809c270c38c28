#include <gtest/gtest.h>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "crypto/paillier.h"
#include "crypto/sha256.h"
#include "fl/paillier_fusion.h"
#include "net/codec.h"
#include "persist/paillier_key_codec.h"

namespace deta::crypto {
namespace {

class PaillierTest : public ::testing::Test {
 protected:
  PaillierTest()
      : rng_(StringToBytes("paillier-test")), key_(GeneratePaillierKey(rng_, 256)) {}
  SecureRng rng_;
  PaillierKeyPair key_;
};

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (uint64_t m : {0ULL, 1ULL, 42ULL, 123456789ULL}) {
    BigUint c = key_.pub.Encrypt(BigUint(m), rng_);
    EXPECT_EQ(key_.priv.Decrypt(c).ToU64(), m);
  }
}

TEST_F(PaillierTest, EncryptionIsRandomized) {
  BigUint m(7);
  EXPECT_NE(key_.pub.Encrypt(m, rng_), key_.pub.Encrypt(m, rng_));
}

TEST_F(PaillierTest, HomomorphicAddition) {
  BigUint c1 = key_.pub.Encrypt(BigUint(1000), rng_);
  BigUint c2 = key_.pub.Encrypt(BigUint(2345), rng_);
  BigUint sum = key_.pub.AddCiphertexts(c1, c2);
  EXPECT_EQ(key_.priv.Decrypt(sum).ToU64(), 3345u);
}

TEST_F(PaillierTest, ManyAddendsAccumulate) {
  BigUint acc = key_.pub.Encrypt(BigUint(0), rng_);
  uint64_t expected = 0;
  for (uint64_t i = 1; i <= 20; ++i) {
    acc = key_.pub.AddCiphertexts(acc, key_.pub.Encrypt(BigUint(i * i), rng_));
    expected += i * i;
  }
  EXPECT_EQ(key_.priv.Decrypt(acc).ToU64(), expected);
}

TEST_F(PaillierTest, PlaintextOutOfRangeThrows) {
  EXPECT_THROW(key_.pub.Encrypt(key_.pub.n(), rng_), CheckFailure);
}

TEST_F(PaillierTest, VectorCodecPacksAndUnpacks) {
  fl::PaillierVectorCodec codec(key_.pub, /*max_parties=*/8);
  EXPECT_GT(codec.LanesPerCiphertext(), 1);
  std::vector<float> v = {0.5f, -1.25f, 3.75f, -0.0625f, 100.0f, -100.0f, 0.0f};
  auto ct = codec.Encrypt(v, rng_);
  EXPECT_EQ(ct.size(), codec.CiphertextCount(v.size()));
  auto decoded = codec.DecryptSum(ct, key_.priv, v.size(), 1);
  ASSERT_EQ(decoded.size(), v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(decoded[i], v[i], 1e-4f) << i;
  }
}

TEST_F(PaillierTest, VectorCodecHomomorphicSumAcrossParties) {
  const int kParties = 5;
  fl::PaillierVectorCodec codec(key_.pub, kParties);
  std::vector<std::vector<float>> updates(kParties);
  std::vector<float> expected(11, 0.0f);
  SecureRng data_rng(StringToBytes("vec"));
  for (int p = 0; p < kParties; ++p) {
    for (size_t i = 0; i < expected.size(); ++i) {
      float v = static_cast<float>(static_cast<int64_t>(data_rng.NextBelow(2001)) - 1000) /
                64.0f;
      updates[static_cast<size_t>(p)].push_back(v);
      expected[i] += v;
    }
  }
  std::vector<BigUint> acc = codec.Encrypt(updates[0], rng_);
  for (int p = 1; p < kParties; ++p) {
    codec.AccumulateInPlace(acc, codec.Encrypt(updates[static_cast<size_t>(p)], rng_));
  }
  auto sum = codec.DecryptSum(acc, key_.priv, expected.size(), kParties);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(sum[i], expected[i], 1e-3f) << i;
  }
}

// Every homomorphic add the fusion path performs is counted where it happens, so a
// run's crypto.paillier ops count covers encrypts, adds and decrypts.
TEST_F(PaillierTest, AccumulateInPlaceCountsAdds) {
  fl::PaillierVectorCodec codec(key_.pub, /*max_parties=*/4);
  std::vector<float> v(20, 0.5f);
  std::vector<BigUint> acc = codec.Encrypt(v, rng_);
  std::vector<BigUint> other = codec.Encrypt(v, rng_);
  const telemetry::TelemetrySnapshot before = telemetry::Snapshot();
  codec.AccumulateInPlace(acc, other);
  codec.AccumulateInPlace(acc, other);
  const telemetry::TelemetrySnapshot delta = telemetry::Delta(before, telemetry::Snapshot());
  EXPECT_EQ(delta.counters.at("crypto.paillier.add_ops"), 2 * acc.size());
  EXPECT_EQ(delta.counters.at("crypto.paillier.encrypt_ops"), 0u);
}

TEST_F(PaillierTest, CiphertextSerializationRoundTrip) {
  fl::PaillierVectorCodec codec(key_.pub, 4);
  std::vector<float> v = {1.0f, 2.0f, -3.0f};
  auto ct = codec.Encrypt(v, rng_);
  Bytes wire = fl::SerializeCiphertexts(ct);
  auto back = fl::DeserializeCiphertexts(wire);
  ASSERT_EQ(back.size(), ct.size());
  for (size_t i = 0; i < ct.size(); ++i) {
    EXPECT_EQ(back[i], ct[i]);
  }
}

// --- Lane packing (crypto::PaillierPacker): exact integer semantics ---

TEST_F(PaillierTest, PackerRoundTripsExactSums) {
  const int kAddends = 6;
  PaillierPacker packer(key_.pub, kAddends, /*lane_bits=*/32);
  EXPECT_GT(packer.lanes(), 1);
  SecureRng data_rng(StringToBytes("packer"));
  std::vector<std::vector<int64_t>> vectors(kAddends);
  std::vector<int64_t> expected(37, 0);
  for (auto& vec : vectors) {
    for (size_t i = 0; i < expected.size(); ++i) {
      int64_t v = static_cast<int64_t>(data_rng.NextBelow(2001)) - 1000;
      vec.push_back(v);
      expected[i] += v;
    }
  }
  std::vector<BigUint> acc = PaillierEncryptPacked(key_.pub, packer, vectors[0], rng_);
  for (int a = 1; a < kAddends; ++a) {
    std::vector<BigUint> ct =
        PaillierEncryptPacked(key_.pub, packer, vectors[static_cast<size_t>(a)], rng_);
    for (size_t i = 0; i < acc.size(); ++i) {
      acc[i] = key_.pub.AddCiphertexts(acc[i], ct[i]);
    }
  }
  std::vector<int64_t> sums =
      PaillierDecryptPackedSum(key_.priv, packer, acc, expected.size(), kAddends);
  ASSERT_EQ(sums.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(sums[i], expected[i]) << i;  // exact: packing adds no rounding
  }
}

TEST_F(PaillierTest, PackedMatchesUnpackedCiphertextSums) {
  // The packed aggregate must decrypt to exactly the sums a per-value (one plaintext
  // per ciphertext, offset-free) Paillier aggregation produces.
  PaillierPacker packer(key_.pub, /*max_addends=*/4, /*lane_bits=*/24);
  std::vector<int64_t> a = {5, -3, 1000, -1000, 0, 77, -77};
  std::vector<int64_t> b = {-5, 4, -999, 1001, 12, -6, 7};
  std::vector<BigUint> packed = PaillierEncryptPacked(key_.pub, packer, a, rng_);
  std::vector<BigUint> packed_b = PaillierEncryptPacked(key_.pub, packer, b, rng_);
  for (size_t i = 0; i < packed.size(); ++i) {
    packed[i] = key_.pub.AddCiphertexts(packed[i], packed_b[i]);
  }
  std::vector<int64_t> packed_sums =
      PaillierDecryptPackedSum(key_.priv, packer, packed, a.size(), 2);
  for (size_t i = 0; i < a.size(); ++i) {
    // Unpacked reference: encrypt the nonnegative shifted value per coordinate.
    const int64_t shift = int64_t{1} << 20;
    BigUint ca = key_.pub.Encrypt(BigUint(static_cast<uint64_t>(a[i] + shift)), rng_);
    BigUint cb = key_.pub.Encrypt(BigUint(static_cast<uint64_t>(b[i] + shift)), rng_);
    uint64_t sum = key_.priv.Decrypt(key_.pub.AddCiphertexts(ca, cb)).ToU64();
    EXPECT_EQ(packed_sums[i], static_cast<int64_t>(sum) - 2 * shift) << i;
  }
}

TEST_F(PaillierTest, PackerRejectsValuesOutsideBound) {
  PaillierPacker packer(key_.pub, /*max_addends=*/8, /*lane_bits=*/16);
  EXPECT_THROW(packer.Pack({packer.value_bound()}), CheckFailure);
  EXPECT_THROW(packer.Pack({-packer.value_bound()}), CheckFailure);
  EXPECT_NO_THROW(packer.Pack({packer.value_bound() - 1}));
  EXPECT_NO_THROW(packer.Pack({-(packer.value_bound() - 1)}));
}

TEST_F(PaillierTest, PackerBlockCountMatchesPackOutput) {
  PaillierPacker packer(key_.pub, /*max_addends=*/8, /*lane_bits=*/16);
  for (size_t n : {size_t{1}, size_t{7}, size_t{64}, size_t{65}}) {
    std::vector<int64_t> values(n, 3);
    EXPECT_EQ(packer.Pack(values).size(), packer.BlockCount(n)) << n;
  }
}

// The fusion codec (and thus aggregated model parameters) must be bitwise identical
// for any worker count and either encryption path: per-element randomness is pre-drawn
// sequentially, so the thread fan-out only changes who computes each exponentiation,
// never its inputs, and the private key's CRT path computes the public path's residue.
TEST_F(PaillierTest, VectorCodecBitExactAcrossThreadCounts) {
  std::vector<float> v(50);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(static_cast<int>(i) - 25) * 0.375f;
  }
  std::vector<std::vector<BigUint>> cts;
  std::vector<std::vector<float>> sums;
  for (int threads : {1, 2, 4}) {
    parallel::ScopedThreads scoped(threads);
    for (bool crt : {false, true}) {
      SecureRng rng(StringToBytes("thread-determinism"));
      fl::PaillierVectorCodec codec(key_.pub, /*max_parties=*/4);
      auto encrypt = [&] {
        return crt ? codec.Encrypt(v, key_.priv, rng) : codec.Encrypt(v, rng);
      };
      std::vector<BigUint> acc = encrypt();
      codec.AccumulateInPlace(acc, encrypt());
      sums.push_back(codec.DecryptSum(acc, key_.priv, v.size(), 2));
      cts.push_back(std::move(acc));
    }
  }
  for (size_t t = 1; t < cts.size(); ++t) {
    ASSERT_EQ(cts[t].size(), cts[0].size());
    for (size_t i = 0; i < cts[0].size(); ++i) {
      EXPECT_EQ(cts[t][i], cts[0][i]) << "variant " << t << " block " << i;
    }
    for (size_t i = 0; i < v.size(); ++i) {
      // Bit-exact, not NEAR: same ciphertexts, same integer sums, same floats.
      EXPECT_EQ(sums[t][i], sums[0][i]) << "variant " << t << " coord " << i;
    }
  }
}

// A ciphertext divisible by p or q has no plaintext: its power mod p^2 (or q^2) is 0,
// and L(0) throws. The batch form must throw as Decrypt does wherever such a ciphertext
// sits: in a full step of PowModBatch's lanes or in a short last one, at any thread
// count. (A lane that left Montgomery form at p^2 instead of 0 would decrypt it to
// garbage without a word; a party drops a result that throws, core/deta_party.cc.)
TEST_F(PaillierTest, DecryptBatchRejectsCiphertextsDivisibleByAPrime) {
  const BigUint& p = key_.priv.p().ExposeForCrypto();
  const BigUint& q = key_.priv.q().ExposeForCrypto();
  std::vector<BigUint> valid;
  for (uint64_t m = 0; m < 16; ++m) {
    valid.push_back(key_.pub.Encrypt(BigUint(m), rng_));
  }
  for (const BigUint& bad : {p, q.Mul(BigUint(5)), p.Mul(q.Sub(BigUint(2)))}) {
    EXPECT_THROW(key_.priv.Decrypt(bad), CheckFailure);
    // Index 3 of a 16-element batch (a full step) and the last of 11 (a short step).
    for (size_t size : {size_t{16}, size_t{11}}) {
      std::vector<BigUint> cs(valid.begin(), valid.begin() + static_cast<long>(size));
      cs[size == 16 ? 3 : size - 1] = bad;
      for (int threads : {1, 4}) {
        parallel::ScopedThreads scoped(threads);
        EXPECT_THROW(key_.priv.DecryptBatch(cs), CheckFailure)
            << "size=" << size << " threads=" << threads;
      }
    }
  }
  // The same batch without the bad ciphertext decrypts.
  std::vector<BigUint> plains = key_.priv.DecryptBatch(valid);
  for (uint64_t m = 0; m < 16; ++m) {
    EXPECT_EQ(plains[m].ToU64(), m);
  }
}

// --- Versioned private-key persistence (persist/paillier_key_codec.h) ---

// The name predates codec version 3; the test round-trips the current (n, p, q) blob.
TEST_F(PaillierTest, KeyCodecV2RoundTripsCrtExtension) {
  Bytes blob = persist::SerializePaillierKey(key_);
  std::optional<PaillierKeyPair> back = persist::ParsePaillierKey(blob);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->priv.p().ExposeForCrypto().Mul(back->priv.q().ExposeForCrypto()),
            back->pub.n());
  EXPECT_EQ(back->pub.n(), key_.pub.n());
  EXPECT_EQ(back->priv.p(), key_.priv.p());
  EXPECT_EQ(back->priv.q(), key_.priv.q());
  BigUint c = key_.pub.Encrypt(BigUint(31337), rng_);
  EXPECT_EQ(back->priv.Decrypt(c).ToU64(), 31337u);
  // The reloaded public key must also encrypt (Montgomery cache rebuilt).
  BigUint c2 = back->pub.Encrypt(BigUint(9), rng_);
  EXPECT_EQ(key_.priv.Decrypt(c2).ToU64(), 9u);
}

TEST_F(PaillierTest, KeyCodecRejectsGarbage) {
  EXPECT_FALSE(persist::ParsePaillierKey({}).has_value());
  EXPECT_FALSE(persist::ParsePaillierKey(StringToBytes("not a key")).has_value());
  Bytes blob = persist::SerializePaillierKey(key_);
  Bytes truncated(blob.begin(), blob.begin() + static_cast<long>(blob.size() / 2));
  EXPECT_FALSE(persist::ParsePaillierKey(truncated).has_value());
  Bytes wrong_version = blob;
  wrong_version[0] = 0x7f;  // version byte far beyond the current 3
  EXPECT_FALSE(persist::ParsePaillierKey(wrong_version).has_value());
  // Versions 1 (n, lambda, mu) and 2 (n, lambda, mu, p, q) carried the textbook key;
  // phi(n) and its inverse mod n are such a key for g = n + 1.
  const BigUint& p = key_.priv.p().ExposeForCrypto();
  const BigUint& q = key_.priv.q().ExposeForCrypto();
  BigUint lambda = p.Sub(BigUint(1)).Mul(q.Sub(BigUint(1)));
  BigUint mu;
  ASSERT_TRUE(BigUint::InvMod(lambda, key_.pub.n(), &mu));
  net::Writer v1;
  v1.WriteU32(1);
  v1.WriteBytes(key_.pub.n().ToBytes());
  v1.WriteBytes(lambda.ToBytes());
  v1.WriteBytes(mu.ToBytes());
  EXPECT_FALSE(persist::ParsePaillierKey(v1.Take()).has_value());
  net::Writer v2;
  v2.WriteU32(2);
  v2.WriteBytes(key_.pub.n().ToBytes());
  v2.WriteBytes(lambda.ToBytes());
  v2.WriteBytes(mu.ToBytes());
  v2.WriteBytes(p.ToBytes());
  v2.WriteBytes(q.ToBytes());
  EXPECT_FALSE(persist::ParsePaillierKey(v2.Take()).has_value());
}

// SHA-256 over three seeded keys of 256, 512 and 1024 bits: per key, n, the wire
// encoding of one packed encryption, and the decrypted homomorphic sum of 8 encrypted
// vectors. It covers keygen (Miller-Rabin through PowMod), encryption (r through Gcd)
// and CRT decryption. The digest was computed by the 32-bit-limb Montgomery kernel and
// the Euclid GCD that the 64-bit kernels replaced; any byte that moves changes it.
TEST_F(PaillierTest, KnownAnswerDigest) {
  constexpr int kAddends = 8;
  Bytes transcript;
  auto append = [&](const Bytes& b) { transcript.insert(transcript.end(), b.begin(), b.end()); };
  auto vector_for = [](int party) {
    std::vector<float> v(24);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(static_cast<int>(i) - 12) * 0.375f + 0.125f * party;
    }
    return v;
  };
  for (size_t bits : {size_t{256}, size_t{512}, size_t{1024}}) {
    SecureRng rng(StringToBytes("paillier-known-answer-" + std::to_string(bits)));
    PaillierKeyPair key = GeneratePaillierKey(rng, bits);
    fl::PaillierVectorCodec codec(key.pub, kAddends);
    std::vector<BigUint> acc = codec.Encrypt(vector_for(0), rng);
    append(key.pub.n().ToBytes());
    append(fl::SerializeCiphertexts(acc));
    for (int party = 1; party < kAddends; ++party) {
      codec.AccumulateInPlace(acc, codec.Encrypt(vector_for(party), rng));
    }
    net::Writer sums;
    sums.WriteFloatVector(codec.DecryptSum(acc, key.priv, 24, kAddends));
    append(sums.Take());
  }
  EXPECT_EQ(ToHex(Sha256Digest(transcript)),
            "17ab248f4c5575cbf27eecbb5ee4ed9ee65d184a7ade6a721770c0dda5302643");
}

TEST(PaillierKeyGenTest, DistinctKeysForDistinctSeeds) {
  SecureRng r1(StringToBytes("a")), r2(StringToBytes("b"));
  auto k1 = GeneratePaillierKey(r1, 128);
  auto k2 = GeneratePaillierKey(r2, 128);
  EXPECT_NE(k1.pub.n(), k2.pub.n());
  // The generator is n + 1: as a ciphertext (r = 1) it decrypts to 1.
  EXPECT_EQ(k1.priv.Decrypt(k1.pub.n().Add(BigUint(1))), BigUint(1));
}

}  // namespace
}  // namespace deta::crypto
