// SHA-256 / HMAC / HKDF / ChaCha20 against published test vectors (FIPS 180-4 examples,
// RFC 4231, RFC 5869, RFC 8439), every width of the ChaCha20 core against the scalar block
// function it replaced, and SecureRng's stream against that function and a digest pinned
// before the vector core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "common/rng.h"
#include "core/shuffler.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace deta::crypto {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(ToHex(Sha256Digest(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(ToHex(Sha256Digest(StringToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha256Digest(StringToBytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Bytes input(1000000, 'a');
  EXPECT_EQ(ToHex(Sha256Digest(input)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes input = StringToBytes("the quick brown fox jumps over the lazy dog, repeatedly");
  Sha256 h;
  // Feed in awkward chunk sizes crossing block boundaries.
  size_t pos = 0;
  for (size_t chunk : {1u, 3u, 7u, 13u, 64u, 100u}) {
    size_t take = std::min(chunk, input.size() - pos);
    h.Update(input.data() + pos, take);
    pos += take;
  }
  h.Update(input.data() + pos, input.size() - pos);
  auto digest = h.Finish();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha256Digest(input));
}

TEST(Sha256Test, ExactBlockBoundaries) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    Bytes input(len, 0x5a);
    Sha256 h;
    h.Update(input);
    auto digest = h.Finish();
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), Sha256Digest(input)) << "len=" << len;
  }
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(ToHex(HmacSha256(key, StringToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(ToHex(HmacSha256(StringToBytes("Jefe"),
                             StringToBytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(ToHex(HmacSha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than the block size.
TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(ToHex(HmacSha256(
                key, StringToBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 5869 test case 1.
TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = FromHex("000102030405060708090a0b0c");
  Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = HkdfExtract(salt, ikm);
  EXPECT_EQ(ToHex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = HkdfExpand(prk, info, 42);
  EXPECT_EQ(ToHex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// RFC 5869 test case 3: empty salt and info.
TEST(HkdfTest, Rfc5869Case3) {
  Bytes ikm(22, 0x0b);
  Bytes okm = Hkdf(Bytes{}, ikm, Bytes{}, 42);
  EXPECT_EQ(ToHex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// RFC 8439 §2.4.2 ChaCha20 encryption example.
TEST(ChaCha20Test, Rfc8439Example) {
  std::array<uint8_t, kChaChaKeySize> key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  std::array<uint8_t, kChaChaNonceSize> nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                                 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  Bytes plaintext = StringToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes ciphertext = ChaCha20Xor(key, nonce, 1, plaintext);
  EXPECT_EQ(ToHex(Bytes(ciphertext.begin(), ciphertext.begin() + 32)),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Decryption is the same operation.
  EXPECT_EQ(ChaCha20Xor(key, nonce, 1, ciphertext), plaintext);
}

// The scalar one-block-at-a-time ChaCha20 the 4-block core replaced, kept as an oracle.
void OracleBlock(const std::array<uint8_t, kChaChaKeySize>& key,
                 const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                 uint8_t out[64]) {
  auto rotl = [](uint32_t x, int n) { return (x << n) | (x >> (32 - n)); };
  auto quarter_round = [&](uint32_t& a, uint32_t& b, uint32_t& c, uint32_t& d) {
    a += b;
    d = rotl(d ^ a, 16);
    c += d;
    b = rotl(b ^ c, 12);
    a += b;
    d = rotl(d ^ a, 8);
    c += d;
    b = rotl(b ^ c, 7);
  };
  auto load = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  };
  uint32_t state[16] = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) {
    state[4 + i] = load(key.data() + 4 * i);
  }
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = load(nonce.data() + 4 * i);
  }
  uint32_t w[16];
  std::copy(state, state + 16, w);
  for (int round = 0; round < 10; ++round) {
    quarter_round(w[0], w[4], w[8], w[12]);
    quarter_round(w[1], w[5], w[9], w[13]);
    quarter_round(w[2], w[6], w[10], w[14]);
    quarter_round(w[3], w[7], w[11], w[15]);
    quarter_round(w[0], w[5], w[10], w[15]);
    quarter_round(w[1], w[6], w[11], w[12]);
    quarter_round(w[2], w[7], w[8], w[13]);
    quarter_round(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) {
    uint32_t v = w[i] + state[i];
    for (int b = 0; b < 4; ++b) {
      out[4 * i + b] = static_cast<uint8_t>(v >> (8 * b));
    }
  }
}

Bytes OracleXor(const std::array<uint8_t, kChaChaKeySize>& key,
                const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                const Bytes& data) {
  Bytes out(data.size());
  uint8_t block[64];
  for (size_t offset = 0; offset < data.size(); offset += 64) {
    OracleBlock(key, nonce, counter++, block);  // wraps mod 2^32, nonce untouched
    for (size_t i = 0; i < 64 && offset + i < data.size(); ++i) {
      out[offset + i] = static_cast<uint8_t>(data[offset + i] ^ block[i]);
    }
  }
  return out;
}

// Three 16-lane batches plus 63 bytes: whole and partial batches and every tail length at
// each width.
constexpr size_t kOracleLength = 3 * 16 * kChaChaBlockSize + 63;

// Every width this CPU runs, through ChaCha20Kernels(), not only the one the process
// picked.
TEST(ChaCha20Test, CoreMatchesScalarOracleAtEveryLength) {
  SecureRng rng(StringToBytes("oracle"));
  auto key = rng.NextArray<kChaChaKeySize>();
  auto nonce = rng.NextArray<kChaChaNonceSize>();
  Bytes data = rng.NextBytes(kOracleLength);
  // A prefix's output is the prefix of the whole output.
  Bytes expected = OracleXor(key, nonce, 7, data);
  for (const ChaCha20Kernel& kernel : ChaCha20Kernels()) {
    SCOPED_TRACE(std::to_string(kernel.lanes) + " lanes");
    for (size_t n = 0; n <= data.size(); ++n) {
      // Out of place, into a buffer whose guard bytes past n must survive.
      Bytes out(n + 64, 0xee);
      kernel.xor_stream(key, nonce, 7, data.data(), out.data(), n);
      ASSERT_TRUE(std::equal(out.begin(), out.begin() + static_cast<long>(n),
                             expected.begin()))
          << "length " << n;
      ASSERT_EQ(Bytes(out.begin() + static_cast<long>(n), out.end()), Bytes(64, 0xee))
          << "length " << n;
      Bytes in_place(data.begin(), data.begin() + static_cast<long>(n));
      kernel.xor_stream(key, nonce, 7, in_place.data(), in_place.data(), n);
      ASSERT_TRUE(std::equal(in_place.begin(), in_place.end(), expected.begin()))
          << "in place, length " << n;
    }
  }
  EXPECT_EQ(ChaCha20Xor(key, nonce, 7, data), expected);
  ChaCha20XorInPlace(key, nonce, 7, data);
  EXPECT_EQ(data, expected);
}

// From 0xfffffff0 the lanes of one 16-lane batch wrap at different positions.
TEST(ChaCha20Test, CounterWrapsWithoutTouchingTheNonce) {
  SecureRng rng(StringToBytes("wrap"));
  auto key = rng.NextArray<kChaChaKeySize>();
  auto nonce = rng.NextArray<kChaChaNonceSize>();
  Bytes data = rng.NextBytes(kOracleLength);
  for (uint32_t counter = 0xfffffff0; counter != 0; ++counter) {
    Bytes expected = OracleXor(key, nonce, counter, data);
    for (const ChaCha20Kernel& kernel : ChaCha20Kernels()) {
      Bytes out(data.size());
      kernel.xor_stream(key, nonce, counter, data.data(), out.data(), data.size());
      EXPECT_EQ(out, expected) << "counter " << counter << ", " << kernel.lanes << " lanes";
    }
    EXPECT_EQ(ChaCha20Xor(key, nonce, counter, data), expected) << "counter " << counter;
    std::array<uint8_t, kChaChaBatchSize> blocks;
    ChaCha20Blocks(key, nonce, counter, blocks);
    for (uint32_t j = 0; j < 4; ++j) {
      uint8_t block[64];
      OracleBlock(key, nonce, counter + j, block);
      EXPECT_EQ(0, std::memcmp(blocks.data() + 64 * j, block, 64))
          << "counter " << counter << " lane " << j;
    }
  }
}

TEST(ChaCha20Test, PickedWidthIsTheWidestSupported) {
  std::vector<ChaCha20Kernel> kernels = ChaCha20Kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front().lanes, 4);
  EXPECT_EQ(ChaCha20Lanes(), kernels.back().lanes);
}

TEST(SecureRngTest, DeterministicFromSeed) {
  SecureRng a(StringToBytes("seed"));
  SecureRng b(StringToBytes("seed"));
  EXPECT_EQ(a.NextBytes(64), b.NextBytes(64));
  SecureRng c(StringToBytes("other"));
  EXPECT_NE(SecureRng(StringToBytes("seed")).NextBytes(32), c.NextBytes(32));
}

TEST(SecureRngTest, NextBelowUnbiasedRange) {
  SecureRng rng(StringToBytes("x"));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(SecureRngTest, ByteDistributionRoughlyUniform) {
  SecureRng rng(StringToBytes("dist"));
  std::vector<int> counts(256, 0);
  const int n = 256 * 64;
  for (int i = 0; i < n; ++i) {
    counts[rng.NextByte()]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 16);   // expectation 64; crude sanity bound
    EXPECT_LT(c, 160);
  }
}

void HashU64(Sha256& h, uint64_t v) {
  Bytes le;
  AppendU64(le, v);
  h.Update(le);
}

// 3,000 mixed draws from |rng|, steered by |picker|, with SerializeState -> RestoreState
// hops into a fresh generator at random points of the stream.
void HashMixedDraws(Sha256& h, SecureRng& rng, Rng& picker) {
  for (int call = 0; call < 3000; ++call) {
    switch (picker.NextBelow(7)) {
      case 0:
        HashU64(h, rng.NextByte());
        break;
      case 1:
        HashU64(h, rng.NextU32());
        break;
      case 2:
        HashU64(h, rng.NextU64());
        break;
      case 3: {
        // Bounds of every magnitude; those just above 2^63 reject about half the draws.
        uint64_t bound = picker.NextU64() >> picker.NextBelow(64);
        HashU64(h, rng.NextBelow(bound == 0 ? 1 : bound));
        break;
      }
      case 4:
        h.Update(rng.NextBytes(static_cast<size_t>(picker.NextBelow(300))));
        break;
      case 5: {
        auto nonce = rng.NextArray<kChaChaNonceSize>();
        h.Update(nonce.data(), nonce.size());
        break;
      }
      default: {
        SecureRng restored(StringToBytes("unrelated seed"));
        ASSERT_TRUE(restored.RestoreState(rng.SerializeState()));
        rng = restored;
        break;
      }
    }
  }
}

// A generator state at block |counter| under |nonce|, holding |block| unconsumed from
// |pos|, in SerializeState's layout.
Bytes CraftedState(const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                   const Bytes& block, uint64_t pos) {
  Bytes state;
  for (size_t i = 0; i < kChaChaKeySize; ++i) {
    state.push_back(static_cast<uint8_t>(7 * i + 1));
  }
  state.insert(state.end(), nonce.begin(), nonce.end());
  AppendU32(state, counter);
  AppendU64(state, pos);
  AppendU64(state, block.size());
  state.insert(state.end(), block.begin(), block.end());
  return state;
}

// Pinned at the byte-at-a-time generator: the stream (across state hops and the nonce
// rollover after 2^32 blocks) and the shuffle permutations drawn from it must not move a
// bit, because keys, nonces and permutations in every job come from it.
TEST(SecureRngTest, KnownAnswerDigest) {
  Sha256 h;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SecureRng rng(StringToBytes("kat-seed-" + std::to_string(seed)));
    Rng picker(seed);
    HashMixedDraws(h, rng, picker);
  }

  Bytes partial_block(64);
  for (size_t i = 0; i < partial_block.size(); ++i) {
    partial_block[i] = static_cast<uint8_t>(0xa0 ^ i);
  }
  const std::array<uint8_t, kChaChaNonceSize> carry_nonce = {0xff, 0xff, 0x00, 0x01, 0x02,
                                                             0x03, 0x04, 0x05, 0x06, 0x07,
                                                             0x08, 0x09};
  std::array<uint8_t, kChaChaNonceSize> all_ones_nonce;
  all_ones_nonce.fill(0xff);
  for (const Bytes& state : {CraftedState(carry_nonce, 0xfffffffe, {}, 0),
                             CraftedState(all_ones_nonce, 0xfffffffd, partial_block, 10)}) {
    SecureRng rng(StringToBytes("unrelated seed"));
    ASSERT_TRUE(rng.RestoreState(state));
    Rng picker(99);
    HashMixedDraws(h, rng, picker);
  }

  core::Shuffler shuffler(StringToBytes("kat-permutation-key"));
  for (auto [round, partition, size] :
       {std::tuple<uint64_t, int, int64_t>{1, 0, 1}, {3, 1, 1000}, {77, 2, 100003}}) {
    for (int64_t index : shuffler.PermutationFor(round, partition, size)) {
      HashU64(h, static_cast<uint64_t>(index));
    }
  }
  auto digest = h.Finish();
  EXPECT_EQ(ToHex(Bytes(digest.begin(), digest.end())),
            "1943405a2e18bcca3d862044aa2a3567df66543eedaa92bdb5970dacf2f5307e");
}

// Whole refills up to block 2^32, single blocks where a whole one would cross it, then the
// next nonce: the stream is the oracle's blocks in order, from any start.
TEST(SecureRngTest, RefillsFollowTheOracleAcrossTheNonceRollover) {
  const std::array<uint8_t, kChaChaNonceSize> nonce = {0xff, 0x01, 0x02, 0x03, 0x04, 0x05,
                                                       0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b};
  std::array<uint8_t, kChaChaNonceSize> next_nonce = nonce;
  next_nonce[0] = 0x00;
  next_nonce[1] = 0x02;
  std::array<uint8_t, kChaChaKeySize> key;  // CraftedState's
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(7 * i + 1);
  }
  for (uint32_t start : {0xffffffb0u, 0xffffffe5u, 0xfffffff0u, 0xfffffff1u, 0xffffffffu}) {
    SecureRng rng(StringToBytes("unrelated seed"));
    ASSERT_TRUE(rng.RestoreState(CraftedState(nonce, start, {}, 0)));
    Bytes expected;
    uint32_t counter = start;
    for (int block = 0; block < 100; ++block) {
      uint8_t out[64];
      OracleBlock(key, counter >= start ? nonce : next_nonce, counter, out);
      expected.insert(expected.end(), out, out + 64);
      ++counter;
    }
    EXPECT_EQ(rng.NextBytes(expected.size()), expected) << "start " << start;
  }
}

// A fresh generator's first draw may be short (a Paillier r is 32 bytes) and the ones
// after it large or small, straddling refills: the stream is the oracle's blocks in order
// whatever the draw sizes.
TEST(SecureRngTest, SmallFirstDrawsThenLargeOnesFollowTheOracle) {
  const std::array<uint8_t, kChaChaNonceSize> nonce{};  // a fresh generator's
  std::array<uint8_t, kChaChaKeySize> key;               // CraftedState's
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(7 * i + 1);
  }
  Bytes oracle;
  for (uint32_t counter = 0; counter < 160; ++counter) {
    uint8_t out[64];
    OracleBlock(key, nonce, counter, out);
    oracle.insert(oracle.end(), out, out + 64);
  }
  for (size_t first : {1, 4, 12, 32, 63, 64, 65, 200, 1023, 1024, 1025, 1500}) {
    SecureRng rng(StringToBytes("unrelated seed"));
    ASSERT_TRUE(rng.RestoreState(CraftedState(nonce, 0, {}, 0)));
    Bytes drawn = first == 1 ? Bytes{rng.NextByte()} : rng.NextBytes(first);
    for (size_t next : {3000, 5, 1024, 64, 1}) {
      Bytes more = rng.NextBytes(next);
      drawn.insert(drawn.end(), more.begin(), more.end());
    }
    ASSERT_LE(drawn.size(), oracle.size());
    EXPECT_EQ(drawn, Bytes(oracle.begin(), oracle.begin() + static_cast<long>(drawn.size())))
        << "first draw " << first;
  }
}

}  // namespace
}  // namespace deta::crypto
