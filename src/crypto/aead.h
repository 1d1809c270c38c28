// Authenticated encryption: RFC 8439 ChaCha20-Poly1305, the ChaCha20 suite of TLS 1.3.
// Real DeTA deployments use TLS for party<->aggregator channels (§4.3); this is the same
// record cipher, keyed from the channel's master secret instead of a TLS handshake.
//
// Construction (RFC 8439 §2.8): the Poly1305 one-time key is the first 32 bytes of
// ChaCha20 keystream block 0; encryption starts at block 1; the tag covers
// AD || pad16 || ciphertext || pad16 || le64(|AD|) || le64(|ciphertext|).
//
// Frame layout: [caller headroom] || nonce(12) || ciphertext || tag(16). The in-place
// forms are the one path: Aead::SealInPlace takes a frame whose plaintext its caller has
// already written between the nonce and tag slots, draws and writes the nonce, encrypts
// the plaintext where it lies and writes the tag; Aead::Open decrypts the ciphertext
// where it lies (or into a disjoint buffer) in one pass, each 16 KiB chunk MACed and then
// XORed while it is in cache, and wipes what it decrypted when the tag does not match.
// The copying forms (Seal of a plaintext span, Open returning Bytes) wrap them.
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

// Checks |tag| over |ciphertext| in constant time while decrypting it into |plaintext|
// (|ciphertext|'s own bytes, to decrypt in place, or disjoint from them, and the same
// size). False on a mismatch, with |plaintext| wiped: no decrypted byte outlives a bad
// tag.
bool ChaCha20Poly1305Open(const std::array<uint8_t, kChaChaKeySize>& key,
                          const std::array<uint8_t, kChaChaNonceSize>& nonce,
                          std::span<const uint8_t> associated_data,
                          std::span<const uint8_t> ciphertext,
                          std::span<const uint8_t, kAeadTagSize> tag,
                          std::span<uint8_t> plaintext);
// The allocating form; nullopt on a mismatch.
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

  // Seals |frame| = nonce || plaintext || tag in place: the caller has written the
  // plaintext and sized the frame for the nonce and tag around it. Draws the nonce from
  // |rng|, encrypts the plaintext where it lies and writes the tag.
  void SealInPlace(std::span<uint8_t> frame, std::span<const uint8_t> associated_data,
                   SecureRng& rng) const;
  // The copying form: a new frame of |headroom| zero bytes the caller may fill, then the
  // sealed copy of |plaintext|.
  Bytes Seal(std::span<const uint8_t> plaintext, std::span<const uint8_t> associated_data,
             SecureRng& rng, size_t headroom = 0) const;

  // Verifies a frame (without headroom) and decrypts it into |plaintext|, the frame's own
  // ciphertext bytes (to open in place) or a disjoint buffer of frame.size() -
  // kAeadOverhead bytes. False on any authentication failure, with |plaintext| wiped.
  bool Open(std::span<const uint8_t> frame, std::span<const uint8_t> associated_data,
            std::span<uint8_t> plaintext) const;
  // The allocating form; nullopt on any authentication failure.
  std::optional<Bytes> Open(std::span<const uint8_t> frame,
                            std::span<const uint8_t> associated_data) const;

 private:
  Secret<std::array<uint8_t, kChaChaKeySize>> key_;
};

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_AEAD_H_
