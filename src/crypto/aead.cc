#include "crypto/aead.h"

#include <algorithm>

#include "common/check.h"
#include "crypto/hmac.h"

namespace deta::crypto {

namespace {

// RFC 8439 §2.8's limit: the 32-bit block counter covers 2^32 - 1 blocks after block 0.
constexpr uint64_t kMaxDataSize = (uint64_t{1} << 38) - 64;
// Seal encrypts and MACs this much at a time, so the MAC reads each chunk from cache.
constexpr size_t kSealChunk = 16 * 1024;

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
  for (size_t offset = 0; offset < data.size(); offset += kSealChunk) {
    std::span<uint8_t> chunk =
        data.subspan(offset, std::min(kSealChunk, data.size() - offset));
    ChaCha20XorInPlace(key, nonce, static_cast<uint32_t>(1 + offset / kChaChaBlockSize),
                       chunk);
    mac.Update(chunk);
  }
  std::array<uint8_t, kAeadTagSize> computed =
      FinishTag(mac, associated_data.size(), data.size());
  std::copy(computed.begin(), computed.end(), tag.begin());
}

std::optional<Bytes> ChaCha20Poly1305Open(const std::array<uint8_t, kChaChaKeySize>& key,
                                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                                          std::span<const uint8_t> associated_data,
                                          std::span<const uint8_t> ciphertext,
                                          std::span<const uint8_t, kAeadTagSize> tag) {
  if (ciphertext.size() > kMaxDataSize) {
    return std::nullopt;
  }
  Secret<std::array<uint8_t, kPoly1305KeySize>> one_time_key = OneTimeKey(key, nonce);
  Poly1305 mac(one_time_key.ExposeForCrypto());
  mac.Update(associated_data);
  mac.PadToBlock();
  mac.Update(ciphertext);
  std::array<uint8_t, kAeadTagSize> expected =
      FinishTag(mac, associated_data.size(), ciphertext.size());
  if (!ConstantTimeEqual(Bytes(expected.begin(), expected.end()),
                         Bytes(tag.begin(), tag.end()))) {
    return std::nullopt;
  }
  Bytes plaintext(ciphertext.size());
  ChaCha20Xor(key, nonce, 1, ciphertext, plaintext);
  return plaintext;
}

Aead::Aead(const Bytes& master_key) {
  Bytes okm = Hkdf(StringToBytes("deta-aead-salt"), master_key,
                   StringToBytes("deta-aead-chacha20-poly1305"), kChaChaKeySize);
  std::copy(okm.begin(), okm.end(), key_.ExposeMutable().begin());
  SecureWipe(okm);
}

Bytes Aead::Seal(std::span<const uint8_t> plaintext, std::span<const uint8_t> associated_data,
                 SecureRng& rng, size_t headroom) const {
  std::array<uint8_t, kChaChaNonceSize> nonce = rng.NextArray<kChaChaNonceSize>();
  Bytes frame;
  frame.reserve(headroom + kAeadOverhead + plaintext.size());
  frame.resize(headroom);
  frame.insert(frame.end(), nonce.begin(), nonce.end());
  frame.insert(frame.end(), plaintext.begin(), plaintext.end());
  frame.resize(frame.size() + kAeadTagSize);
  std::span<uint8_t> body(frame.data() + headroom + kChaChaNonceSize, plaintext.size());
  ChaCha20Poly1305Seal(key_.ExposeForCrypto(), nonce, associated_data, body,
                       std::span<uint8_t, kAeadTagSize>(frame.end() - kAeadTagSize,
                                                         kAeadTagSize));
  return frame;
}

std::optional<Bytes> Aead::Open(std::span<const uint8_t> frame,
                                std::span<const uint8_t> associated_data) const {
  if (frame.size() < kAeadOverhead) {
    return std::nullopt;
  }
  std::array<uint8_t, kChaChaNonceSize> nonce;
  std::copy_n(frame.begin(), kChaChaNonceSize, nonce.begin());
  return ChaCha20Poly1305Open(key_.ExposeForCrypto(), nonce, associated_data,
                              frame.subspan(kChaChaNonceSize, frame.size() - kAeadOverhead),
                              frame.last<kAeadTagSize>());
}

}  // namespace deta::crypto
