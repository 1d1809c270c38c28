#include <gtest/gtest.h>

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

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  auto key = HexArray<kPoly1305KeySize>(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  Bytes message = Pattern(1000, 5);
  auto one_shot = Poly1305Mac(key, message);
  for (size_t split : {0u, 1u, 15u, 16u, 17u, 33u, 500u, 999u, 1000u}) {
    Poly1305 mac(key);
    mac.Update(std::span<const uint8_t>(message).first(split));
    mac.Update(std::span<const uint8_t>(message).subspan(split));
    EXPECT_EQ(mac.Finish(), one_shot) << "split " << split;
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

TEST_F(AeadTest, TamperedCiphertextRejected) {
  Bytes frame = aead_.Seal(StringToBytes("secret"), {}, rng_);
  for (size_t i = 0; i < frame.size(); i += 7) {
    Bytes bad = frame;
    bad[i] ^= 0x01;
    EXPECT_FALSE(aead_.Open(bad, {}).has_value()) << "byte " << i;
  }
}

TEST_F(AeadTest, WrongAssociatedDataRejected) {
  Bytes frame = aead_.Seal(StringToBytes("secret"), StringToBytes("chan-A"), rng_);
  EXPECT_FALSE(aead_.Open(frame, StringToBytes("chan-B")).has_value());
}

TEST_F(AeadTest, TruncatedFrameRejected) {
  Bytes frame = aead_.Seal(StringToBytes("secret"), {}, rng_);
  Bytes truncated(frame.begin(), frame.begin() + 10);
  EXPECT_FALSE(aead_.Open(truncated, {}).has_value());
  EXPECT_FALSE(aead_.Open({}, {}).has_value());
}

TEST_F(AeadTest, WrongKeyRejected) {
  Aead other(StringToBytes("different-key"));
  Bytes frame = aead_.Seal(StringToBytes("secret"), {}, rng_);
  EXPECT_FALSE(other.Open(frame, {}).has_value());
}

TEST_F(AeadTest, FrameLeavesHeadroomAndCarriesA16ByteTag) {
  Bytes plaintext = StringToBytes("fragment");
  Bytes frame = aead_.Seal(plaintext, {}, rng_, 8);
  ASSERT_EQ(frame.size(), 8 + kChaChaNonceSize + plaintext.size() + kAeadTagSize);
  EXPECT_EQ(Bytes(frame.begin(), frame.begin() + 8), Bytes(8, 0));
  EXPECT_EQ(aead_.Open(std::span<const uint8_t>(frame).subspan(8), {}), plaintext);
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
