// Authenticated encryption: RFC 8439 ChaCha20-Poly1305, the ChaCha20 suite of TLS 1.3.
// Real DeTA deployments use TLS for party<->aggregator channels (§4.3); this is the same
// record cipher, keyed from the channel's master secret instead of a TLS handshake.
//
// Construction (RFC 8439 §2.8): the Poly1305 one-time key is the first 32 bytes of
// ChaCha20 keystream block 0; encryption starts at block 1; the tag covers
// AD || pad16 || ciphertext || pad16 || le64(|AD|) || le64(|ciphertext|).
//
// Frame layout: [caller headroom] || nonce(12) || ciphertext || tag(16). Aead::Seal
// allocates the frame once, copies the plaintext in, encrypts it in place and writes the
// tag behind it; Aead::Open checks the tag over the ciphertext where it lies before
// decrypting anything, then decrypts it straight into the plaintext buffer (so the
// ciphertext is read twice, once per pass).
#ifndef DETA_CRYPTO_AEAD_H_
#define DETA_CRYPTO_AEAD_H_

#include <optional>
#include <span>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

inline constexpr size_t kAeadTagSize = kPoly1305TagSize;
// Bytes a frame adds to its plaintext: nonce and tag.
inline constexpr size_t kAeadOverhead = kChaChaNonceSize + kAeadTagSize;

// AEAD_CHACHA20_POLY1305 on raw spans. Encrypts |data| in place and writes its tag.
void ChaCha20Poly1305Seal(const std::array<uint8_t, kChaChaKeySize>& key,
                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                          std::span<const uint8_t> associated_data, std::span<uint8_t> data,
                          std::span<uint8_t, kAeadTagSize> tag);

// Checks |tag| over |ciphertext| in constant time and only then decrypts it; nullopt on
// a mismatch.
std::optional<Bytes> ChaCha20Poly1305Open(const std::array<uint8_t, kChaChaKeySize>& key,
                                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                                          std::span<const uint8_t> associated_data,
                                          std::span<const uint8_t> ciphertext,
                                          std::span<const uint8_t, kAeadTagSize> tag);

class Aead {
 public:
  // |master_key| is expanded via HKDF into the ChaCha20-Poly1305 key, a Secret member
  // that wipes itself on destruction.
  explicit Aead(const Bytes& master_key);

  // Encrypts and authenticates under a nonce drawn from |rng|. The frame starts with
  // |headroom| zero bytes the caller may fill (SecureChannel writes its sequence number
  // there), so a framed message is built in one buffer.
  Bytes Seal(std::span<const uint8_t> plaintext, std::span<const uint8_t> associated_data,
             SecureRng& rng, size_t headroom = 0) const;

  // Verifies and decrypts a frame (without headroom); nullopt on any authentication
  // failure.
  std::optional<Bytes> Open(std::span<const uint8_t> frame,
                            std::span<const uint8_t> associated_data) const;

 private:
  Secret<std::array<uint8_t, kChaChaKeySize>> key_;
};

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_AEAD_H_
