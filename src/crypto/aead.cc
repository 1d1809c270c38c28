#include "crypto/aead.h"

#include <algorithm>

#include "common/check.h"
#include "crypto/hmac.h"

namespace deta::crypto {

namespace {

// RFC 8439 §2.8's limit: the 32-bit block counter covers 2^32 - 1 blocks after block 0.
constexpr uint64_t kMaxDataSize = (uint64_t{1} << 38) - 64;
// Seal and Open run the cipher and the MAC over this much at a time, so the second pass
// over a chunk reads it from cache.
constexpr size_t kChunk = 16 * 1024;

// The Poly1305 key for (key, nonce): the first 32 bytes of keystream block 0.
Secret<std::array<uint8_t, kPoly1305KeySize>> OneTimeKey(
    const std::array<uint8_t, kChaChaKeySize>& key,
    const std::array<uint8_t, kChaChaNonceSize>& nonce) {
  std::array<uint8_t, kChaChaBatchSize> blocks;
  ChaCha20Blocks(key, nonce, 0, blocks);
  Secret<std::array<uint8_t, kPoly1305KeySize>> one_time_key;
  std::copy_n(blocks.begin(), kPoly1305KeySize, one_time_key.ExposeMutable().begin());
  SecureWipe(blocks);
  return one_time_key;
}

// Closes the MAC input after the ciphertext: its pad, then both lengths.
std::array<uint8_t, kAeadTagSize> FinishTag(Poly1305& mac, uint64_t ad_size,
                                            uint64_t data_size) {
  mac.PadToBlock();
  Bytes lengths;
  AppendU64(lengths, ad_size);
  AppendU64(lengths, data_size);
  mac.Update(lengths);
  return mac.Finish();
}

}  // namespace

void ChaCha20Poly1305Seal(const std::array<uint8_t, kChaChaKeySize>& key,
                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                          std::span<const uint8_t> associated_data, std::span<uint8_t> data,
                          std::span<uint8_t, kAeadTagSize> tag) {
  DETA_CHECK_LE(data.size(), kMaxDataSize);
  Secret<std::array<uint8_t, kPoly1305KeySize>> one_time_key = OneTimeKey(key, nonce);
  Poly1305 mac(one_time_key.ExposeForCrypto());
  mac.Update(associated_data);
  mac.PadToBlock();
  for (size_t offset = 0; offset < data.size(); offset += kChunk) {
    std::span<uint8_t> chunk = data.subspan(offset, std::min(kChunk, data.size() - offset));
    ChaCha20XorInPlace(key, nonce, static_cast<uint32_t>(1 + offset / kChaChaBlockSize),
                       chunk);
    mac.Update(chunk);
  }
  std::array<uint8_t, kAeadTagSize> computed =
      FinishTag(mac, associated_data.size(), data.size());
  std::copy(computed.begin(), computed.end(), tag.begin());
}

bool ChaCha20Poly1305Open(const std::array<uint8_t, kChaChaKeySize>& key,
                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                          std::span<const uint8_t> associated_data,
                          std::span<const uint8_t> ciphertext,
                          std::span<const uint8_t, kAeadTagSize> tag,
                          std::span<uint8_t> plaintext) {
  DETA_CHECK_EQ(ciphertext.size(), plaintext.size());
  if (ciphertext.size() > kMaxDataSize) {
    return false;
  }
  Secret<std::array<uint8_t, kPoly1305KeySize>> one_time_key = OneTimeKey(key, nonce);
  Poly1305 mac(one_time_key.ExposeForCrypto());
  mac.Update(associated_data);
  mac.PadToBlock();
  // One pass: each chunk is MACed, then decrypted while it is in cache (in place when
  // |plaintext| is |ciphertext|: the MAC has read the chunk before the XOR overwrites it).
  for (size_t offset = 0; offset < ciphertext.size(); offset += kChunk) {
    size_t n = std::min(kChunk, ciphertext.size() - offset);
    std::span<const uint8_t> chunk = ciphertext.subspan(offset, n);
    mac.Update(chunk);
    ChaCha20Xor(key, nonce, static_cast<uint32_t>(1 + offset / kChaChaBlockSize), chunk,
                plaintext.subspan(offset, n));
  }
  std::array<uint8_t, kAeadTagSize> expected =
      FinishTag(mac, associated_data.size(), ciphertext.size());
  if (!ConstantTimeEqual(Bytes(expected.begin(), expected.end()),
                         Bytes(tag.begin(), tag.end()))) {
    SecureWipe(plaintext.data(), plaintext.size());
    return false;
  }
  return true;
}

std::optional<Bytes> ChaCha20Poly1305Open(const std::array<uint8_t, kChaChaKeySize>& key,
                                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                                          std::span<const uint8_t> associated_data,
                                          std::span<const uint8_t> ciphertext,
                                          std::span<const uint8_t, kAeadTagSize> tag) {
  Bytes plaintext(ciphertext.size());
  if (!ChaCha20Poly1305Open(key, nonce, associated_data, ciphertext, tag, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

Aead::Aead(const Bytes& master_key) {
  Bytes okm = Hkdf(StringToBytes("deta-aead-salt"), master_key,
                   StringToBytes("deta-aead-chacha20-poly1305"), kChaChaKeySize);
  std::copy(okm.begin(), okm.end(), key_.ExposeMutable().begin());
  SecureWipe(okm);
}

void Aead::SealInPlace(std::span<uint8_t> frame, std::span<const uint8_t> associated_data,
                       SecureRng& rng) const {
  DETA_CHECK_GE(frame.size(), kAeadOverhead);
  std::array<uint8_t, kChaChaNonceSize> nonce = rng.NextArray<kChaChaNonceSize>();
  std::copy(nonce.begin(), nonce.end(), frame.begin());
  ChaCha20Poly1305Seal(key_.ExposeForCrypto(), nonce, associated_data,
                       frame.subspan(kChaChaNonceSize, frame.size() - kAeadOverhead),
                       frame.last<kAeadTagSize>());
}

Bytes Aead::Seal(std::span<const uint8_t> plaintext, std::span<const uint8_t> associated_data,
                 SecureRng& rng, size_t headroom) const {
  Bytes frame;
  frame.reserve(headroom + kAeadOverhead + plaintext.size());
  frame.resize(headroom + kChaChaNonceSize);
  frame.insert(frame.end(), plaintext.begin(), plaintext.end());
  frame.resize(frame.size() + kAeadTagSize);
  SealInPlace(std::span<uint8_t>(frame).subspan(headroom), associated_data, rng);
  return frame;
}

bool Aead::Open(std::span<const uint8_t> frame, std::span<const uint8_t> associated_data,
                std::span<uint8_t> plaintext) const {
  if (frame.size() < kAeadOverhead) {
    return false;
  }
  std::array<uint8_t, kChaChaNonceSize> nonce;
  std::copy_n(frame.begin(), kChaChaNonceSize, nonce.begin());
  return ChaCha20Poly1305Open(key_.ExposeForCrypto(), nonce, associated_data,
                              frame.subspan(kChaChaNonceSize, frame.size() - kAeadOverhead),
                              frame.last<kAeadTagSize>(), plaintext);
}

std::optional<Bytes> Aead::Open(std::span<const uint8_t> frame,
                                std::span<const uint8_t> associated_data) const {
  if (frame.size() < kAeadOverhead) {
    return std::nullopt;
  }
  Bytes plaintext(frame.size() - kAeadOverhead);
  if (!Open(frame, associated_data, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

}  // namespace deta::crypto
