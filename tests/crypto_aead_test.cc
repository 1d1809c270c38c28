#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "aead_kat_vectors.h"
#include "crypto/aead.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"
#include "net/secure_channel.h"

namespace deta::crypto {
namespace {

template <size_t N>
std::array<uint8_t, N> HexArray(const std::string& hex) {
  Bytes bytes = FromHex(hex);
  std::array<uint8_t, N> out;
  EXPECT_EQ(bytes.size(), N);
  std::copy_n(bytes.begin(), N, out.begin());
  return out;
}

Bytes Pattern(size_t size, int pattern) {
  Bytes out(size);
  for (size_t i = 0; i < size; ++i) {
    out[i] = static_cast<uint8_t>((37 * i + static_cast<size_t>(pattern)) % 251);
  }
  return out;
}

Bytes TagBytes(const std::array<uint8_t, kAeadTagSize>& tag) {
  return Bytes(tag.begin(), tag.end());
}

// RFC 8439 §2.5.2.
TEST(Poly1305Test, Rfc8439Section252) {
  auto key = HexArray<kPoly1305KeySize>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes message = StringToBytes("Cryptographic Forum Research Group");
  EXPECT_EQ(ToHex(TagBytes(Poly1305Mac(key, message))), "a8061dc1305136c6c22b8baf0c0127a9");
}

// The one-block-at-a-time Poly1305 the 4-block kernel replaced, kept as an oracle: one
// carry chain per 16-byte block.
std::array<uint8_t, kPoly1305TagSize> OracleMac(std::span<const uint8_t> key,
                                                std::span<const uint8_t> message) {
  using U128 = unsigned __int128;
  constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
  constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;
  auto load = [](const uint8_t* p) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | p[i];
    }
    return v;
  };
  const uint64_t t0 = load(key.data());
  const uint64_t t1 = load(key.data() + 8);
  const uint64_t r0 = t0 & 0xffc0fffffffULL;
  const uint64_t r1 = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  const uint64_t r2 = (t1 >> 24) & 0x00ffffffc0fULL;
  const uint64_t s1 = r1 * 20;
  const uint64_t s2 = r2 * 20;
  uint64_t h0 = 0;
  uint64_t h1 = 0;
  uint64_t h2 = 0;
  for (size_t offset = 0; offset < message.size(); offset += 16) {
    uint8_t block[16] = {};
    size_t n = std::min<size_t>(16, message.size() - offset);
    std::copy_n(message.begin() + static_cast<long>(offset), n, block);
    uint64_t hibit = uint64_t{1} << 40;
    if (n < 16) {
      block[n] = 1;
      hibit = 0;
    }
    uint64_t m0 = load(block);
    uint64_t m1 = load(block + 8);
    h0 += m0 & kMask44;
    h1 += ((m0 >> 44) | (m1 << 20)) & kMask44;
    h2 += ((m1 >> 24) & kMask42) | hibit;
    U128 d0 = U128{h0} * r0 + U128{h1} * s2 + U128{h2} * s1;
    U128 d1 = U128{h0} * r1 + U128{h1} * r0 + U128{h2} * s2;
    U128 d2 = U128{h0} * r2 + U128{h1} * r1 + U128{h2} * r0;
    uint64_t c = static_cast<uint64_t>(d0 >> 44);
    h0 = static_cast<uint64_t>(d0) & kMask44;
    d1 += c;
    c = static_cast<uint64_t>(d1 >> 44);
    h1 = static_cast<uint64_t>(d1) & kMask44;
    d2 += c;
    c = static_cast<uint64_t>(d2 >> 42);
    h2 = static_cast<uint64_t>(d2) & kMask42;
    h0 += c * 5;
    c = h0 >> 44;
    h0 &= kMask44;
    h1 += c;
  }
  // Carry fully, subtract p when h >= p, then add the pad mod 2^128.
  for (int pass = 0; pass < 2; ++pass) {
    h2 += h1 >> 44;
    h1 &= kMask44;
    h0 += (h2 >> 42) * 5;
    h2 &= kMask42;
    h1 += h0 >> 44;
    h0 &= kMask44;
  }
  uint64_t g0 = h0 + 5;
  uint64_t g1 = h1 + (g0 >> 44);
  g0 &= kMask44;
  uint64_t g2 = h2 + (g1 >> 44) - (uint64_t{1} << 42);
  g1 &= kMask44;
  if ((g2 >> 63) == 0) {
    h0 = g0;
    h1 = g1;
    h2 = g2;
  }
  U128 lo = U128{h0 | (h1 << 44)} + load(key.data() + 16);
  uint64_t hi = ((h1 >> 20) | (h2 << 24)) + load(key.data() + 24) +
                static_cast<uint64_t>(lo >> 64);
  std::array<uint8_t, kPoly1305TagSize> tag;
  for (int i = 0; i < 8; ++i) {
    tag[i] = static_cast<uint8_t>(static_cast<uint64_t>(lo) >> (8 * i));
    tag[8 + i] = static_cast<uint8_t>(hi >> (8 * i));
  }
  return tag;
}

TEST(Poly1305Test, OracleMatchesRfc8439Section252) {
  auto key = HexArray<kPoly1305KeySize>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes message = StringToBytes("Cryptographic Forum Research Group");
  EXPECT_EQ(ToHex(TagBytes(OracleMac(key, message))), "a8061dc1305136c6c22b8baf0c0127a9");
}

// Every length 0-300, whole and split at points on both sides of the 64-byte steps,
// against the one-block oracle. The all-ones key and message put every limb at its
// largest, where the 4-block sums come closest to their bound.
TEST(Poly1305Test, IncrementalMatchesOneShot) {
  std::array<uint8_t, kPoly1305KeySize> ones;
  ones.fill(0xff);
  const std::array<uint8_t, kPoly1305KeySize> keys[] = {
      HexArray<kPoly1305KeySize>(
          "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"),
      ones};
  const Bytes messages[] = {Pattern(300, 5), Bytes(300, 0xff)};
  for (const auto& key : keys) {
    for (const Bytes& message : messages) {
      for (size_t len = 0; len <= message.size(); ++len) {
        std::span<const uint8_t> prefix = std::span<const uint8_t>(message).first(len);
        auto expected = OracleMac(key, prefix);
        ASSERT_EQ(Poly1305Mac(key, prefix), expected) << "length " << len;
        for (size_t split : {1u, 15u, 16u, 17u, 48u, 63u, 64u, 65u, 80u, 127u, 129u, 200u}) {
          if (split > len) {
            continue;
          }
          Poly1305 mac(key);
          mac.Update(prefix.first(split));
          mac.Update(prefix.subspan(split));
          ASSERT_EQ(mac.Finish(), expected) << "length " << len << " split " << split;
        }
      }
    }
  }
  Bytes message = Pattern(1000, 5);
  auto expected = OracleMac(keys[0], message);
  for (size_t split : {0u, 1u, 15u, 16u, 17u, 33u, 500u, 999u, 1000u}) {
    Poly1305 mac(keys[0]);
    mac.Update(std::span<const uint8_t>(message).first(split));
    mac.Update(std::span<const uint8_t>(message).subspan(split));
    EXPECT_EQ(mac.Finish(), expected) << "1000 bytes, split " << split;
  }
}

// RFC 8439 §2.8.2, through the raw construction.
TEST(ChaCha20Poly1305Test, Rfc8439Section282) {
  std::array<uint8_t, kChaChaKeySize> key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x80 + i);
  }
  auto nonce = HexArray<kChaChaNonceSize>("070000004041424344454647");
  Bytes ad = FromHex("50515253c0c1c2c3c4c5c6c7");
  Bytes plaintext = StringToBytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Bytes data = plaintext;
  std::array<uint8_t, kAeadTagSize> tag;
  ChaCha20Poly1305Seal(key, nonce, ad, data, tag);
  EXPECT_EQ(ToHex(data),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(ToHex(TagBytes(tag)), "1ae10b594f09e26a7e902ecbd0600691");
  EXPECT_EQ(ChaCha20Poly1305Open(key, nonce, ad, data, tag), plaintext);
  // In place: the ciphertext's own bytes become the plaintext.
  ASSERT_TRUE(ChaCha20Poly1305Open(key, nonce, ad, data, tag, data));
  EXPECT_EQ(data, plaintext);
}

// Vectors from OpenSSL (scripts/gen_aead_kat.py). Every byte of a small frame
// (nonce || ciphertext || tag) and of its AD is flipped once; larger frames flip a
// stride of bytes plus the whole nonce, last block and tag.
TEST(ChaCha20Poly1305Test, OpenSslVectors) {
  for (const kat::AeadVector& v : kat::kAeadVectors) {
    SCOPED_TRACE("plaintext size " + std::to_string(v.plaintext_size));
    auto key = HexArray<kChaChaKeySize>(v.key);
    auto nonce = HexArray<kChaChaNonceSize>(v.nonce);
    Bytes ad = FromHex(v.associated_data);
    Bytes plaintext = Pattern(v.plaintext_size, v.pattern);
    Bytes ciphertext = plaintext;
    std::array<uint8_t, kAeadTagSize> tag;
    ChaCha20Poly1305Seal(key, nonce, ad, ciphertext, tag);
    EXPECT_EQ(ToHex(Sha256Digest(ciphertext)), v.ciphertext_sha256);
    EXPECT_EQ(ToHex(TagBytes(tag)), v.tag);
    ASSERT_EQ(ChaCha20Poly1305Open(key, nonce, ad, ciphertext, tag), plaintext);

    Bytes frame(nonce.begin(), nonce.end());
    frame.insert(frame.end(), ciphertext.begin(), ciphertext.end());
    frame.insert(frame.end(), tag.begin(), tag.end());
    auto opens = [&](const Bytes& f, const Bytes& a) {
      std::array<uint8_t, kChaChaNonceSize> n;
      std::copy_n(f.begin(), n.size(), n.begin());
      std::span<const uint8_t> body(f);
      return ChaCha20Poly1305Open(key, n, a,
                                  body.subspan(n.size(), f.size() - kAeadOverhead),
                                  body.last<kAeadTagSize>())
          .has_value();
    };
    ASSERT_TRUE(opens(frame, ad));
    const size_t stride = frame.size() <= 4096 + kAeadOverhead ? 1 : 1009;
    for (size_t i = 0; i < frame.size(); ++i) {
      bool edge = i < kChaChaNonceSize + 64 || i + 64 + kAeadTagSize >= frame.size();
      if (!edge && i % stride != 0) {
        continue;
      }
      Bytes bad = frame;
      bad[i] ^= static_cast<uint8_t>(1u << (i % 8));
      EXPECT_FALSE(opens(bad, ad)) << "frame byte " << i;
    }
    for (size_t i = 0; i < ad.size(); ++i) {
      Bytes bad_ad = ad;
      bad_ad[i] ^= 0x80;
      EXPECT_FALSE(opens(frame, bad_ad)) << "AD byte " << i;
    }
    Bytes longer_ad = ad;
    longer_ad.push_back(0);
    EXPECT_FALSE(opens(frame, longer_ad));
  }
}

class AeadTest : public ::testing::Test {
 protected:
  AeadTest() : aead_(StringToBytes("master-key")), rng_(StringToBytes("aead-rng")) {}
  Aead aead_;
  SecureRng rng_;
};

TEST_F(AeadTest, SealOpenRoundTrip) {
  Bytes pt = StringToBytes("model update fragment");
  Bytes ad = StringToBytes("round:3");
  Bytes frame = aead_.Seal(pt, ad, rng_);
  auto opened = aead_.Open(frame, ad);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, pt);
}

TEST_F(AeadTest, EmptyPlaintext) {
  Bytes frame = aead_.Seal({}, {}, rng_);
  auto opened = aead_.Open(frame, {});
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST_F(AeadTest, DistinctNoncesPerSeal) {
  Bytes pt = StringToBytes("same plaintext");
  Bytes f1 = aead_.Seal(pt, {}, rng_);
  Bytes f2 = aead_.Seal(pt, {}, rng_);
  EXPECT_NE(f1, f2);
}

// Open MACs and decrypts 16 KiB at a time. This plaintext ends in a partial third chunk,
// where the tamper tests below also flip, cut or mis-key.
constexpr size_t kLongPlaintext = 2 * 16 * 1024 + 7000;
constexpr size_t kLastChunk = kChaChaNonceSize + 2 * 16 * 1024;

TEST_F(AeadTest, TamperedCiphertextRejected) {
  Bytes frame = aead_.Seal(StringToBytes("secret"), {}, rng_);
  for (size_t i = 0; i < frame.size(); i += 7) {
    Bytes bad = frame;
    bad[i] ^= 0x01;
    EXPECT_FALSE(aead_.Open(bad, {}).has_value()) << "byte " << i;
  }
  Bytes long_frame = aead_.Seal(Pattern(kLongPlaintext, 9), {}, rng_);
  ASSERT_TRUE(aead_.Open(long_frame, {}).has_value());
  for (size_t i = kLastChunk; i < long_frame.size(); i += 101) {
    Bytes bad = long_frame;
    bad[i] ^= 0x01;
    EXPECT_FALSE(aead_.Open(bad, {}).has_value()) << "long frame byte " << i;
  }
}

TEST_F(AeadTest, WrongAssociatedDataRejected) {
  Bytes frame = aead_.Seal(StringToBytes("secret"), StringToBytes("chan-A"), rng_);
  EXPECT_FALSE(aead_.Open(frame, StringToBytes("chan-B")).has_value());
  Bytes long_frame = aead_.Seal(Pattern(kLongPlaintext, 9), StringToBytes("chan-A"), rng_);
  EXPECT_FALSE(aead_.Open(long_frame, StringToBytes("chan-B")).has_value());
}

TEST_F(AeadTest, TruncatedFrameRejected) {
  Bytes frame = aead_.Seal(StringToBytes("secret"), {}, rng_);
  Bytes truncated(frame.begin(), frame.begin() + 10);
  EXPECT_FALSE(aead_.Open(truncated, {}).has_value());
  EXPECT_FALSE(aead_.Open({}, {}).has_value());
  Bytes long_frame = aead_.Seal(Pattern(kLongPlaintext, 9), {}, rng_);
  Bytes cut(long_frame.begin(), long_frame.end() - 100);
  EXPECT_FALSE(aead_.Open(cut, {}).has_value());
}

TEST_F(AeadTest, WrongKeyRejected) {
  Aead other(StringToBytes("different-key"));
  Bytes frame = aead_.Seal(StringToBytes("secret"), {}, rng_);
  EXPECT_FALSE(other.Open(frame, {}).has_value());
  Bytes long_frame = aead_.Seal(Pattern(kLongPlaintext, 9), {}, rng_);
  EXPECT_FALSE(other.Open(long_frame, {}).has_value());
}

TEST_F(AeadTest, FrameLeavesHeadroomAndCarriesA16ByteTag) {
  Bytes plaintext = StringToBytes("fragment");
  Bytes frame = aead_.Seal(plaintext, {}, rng_, 8);
  ASSERT_EQ(frame.size(), 8 + kChaChaNonceSize + plaintext.size() + kAeadTagSize);
  EXPECT_EQ(Bytes(frame.begin(), frame.begin() + 8), Bytes(8, 0));
  EXPECT_EQ(aead_.Open(std::span<const uint8_t>(frame).subspan(8), {}), plaintext);
}

// The in-place open is the one path: over the OpenSSL vectors it turns the ciphertext's
// own bytes into the plaintext, and on a bad tag it leaves only zeros behind.
TEST(ChaCha20Poly1305Test, OpenSslVectorsOpenInPlace) {
  for (const kat::AeadVector& v : kat::kAeadVectors) {
    SCOPED_TRACE("plaintext size " + std::to_string(v.plaintext_size));
    auto key = HexArray<kChaChaKeySize>(v.key);
    auto nonce = HexArray<kChaChaNonceSize>(v.nonce);
    Bytes ad = FromHex(v.associated_data);
    Bytes plaintext = Pattern(v.plaintext_size, v.pattern);
    Bytes data = plaintext;
    std::array<uint8_t, kAeadTagSize> tag;
    ChaCha20Poly1305Seal(key, nonce, ad, data, tag);
    ASSERT_EQ(ToHex(Sha256Digest(data)), v.ciphertext_sha256);
    ASSERT_EQ(ToHex(TagBytes(tag)), v.tag);
    Bytes in_place = data;
    ASSERT_TRUE(ChaCha20Poly1305Open(key, nonce, ad, in_place, tag, in_place));
    EXPECT_EQ(in_place, plaintext);
    std::array<uint8_t, kAeadTagSize> bad_tag = tag;
    bad_tag[v.plaintext_size % kAeadTagSize] ^= 0x01;
    Bytes rejected = data;
    EXPECT_FALSE(ChaCha20Poly1305Open(key, nonce, ad, rejected, bad_tag, rejected));
    EXPECT_EQ(rejected, Bytes(rejected.size(), 0));
  }
}

TEST(SecureChannelTest, BindsFramesToChannelId) {
  SecureRng rng(StringToBytes("chan"));
  Bytes master = StringToBytes("shared-master-secret");
  net::SecureChannel a(master, "chan:party0:aggregator1", net::ChannelRole::kInitiator);
  net::SecureChannel a_peer(master, "chan:party0:aggregator1",
                            net::ChannelRole::kResponder);
  net::SecureChannel b(master, "chan:party0:aggregator2", net::ChannelRole::kResponder);
  Bytes frame = a.Seal(StringToBytes("fragment"), rng);
  EXPECT_TRUE(a_peer.Open(frame).has_value());
  // Same key, different channel id: cross-channel replay is rejected.
  EXPECT_FALSE(b.Open(frame).has_value());
}

TEST(SecureChannelTest, LargePayloadRoundTrip) {
  SecureRng rng(StringToBytes("chan2"));
  net::SecureChannel sender(StringToBytes("k"), "chan:x:y", net::ChannelRole::kInitiator);
  net::SecureChannel receiver(StringToBytes("k"), "chan:x:y",
                              net::ChannelRole::kResponder);
  Bytes big = rng.NextBytes(1 << 18);  // 256 KiB, spans many ChaCha blocks
  Bytes frame = sender.Seal(big, rng);
  auto opened = receiver.Open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, big);
}

}  // namespace
}  // namespace deta::crypto
