// Poly1305 one-time authenticator (RFC 8439 §2.5), the MAC half of ChaCha20-Poly1305
// (crypto/aead.h). The accumulator and r run on 44/44/42-bit limbs with 128-bit
// products, the idiom the EC and Montgomery kernels use. Whole 64-byte runs fold four
// blocks into one carry chain with r^2, r^3 and r^4; the rest goes one block at a time.
//
// A key authenticates exactly one message: ChaCha20-Poly1305 derives a fresh one from
// keystream block 0 of every (key, nonce). The object holds the key and the running
// accumulator and wipes both on destruction.
#ifndef DETA_CRYPTO_POLY1305_H_
#define DETA_CRYPTO_POLY1305_H_

#include <array>
#include <cstdint>
#include <span>

namespace deta::crypto {

inline constexpr size_t kPoly1305KeySize = 32;
inline constexpr size_t kPoly1305TagSize = 16;

class Poly1305 {
 public:
  explicit Poly1305(std::span<const uint8_t, kPoly1305KeySize> key);
  Poly1305(const Poly1305&) = delete;
  Poly1305& operator=(const Poly1305&) = delete;
  ~Poly1305();

  void Update(std::span<const uint8_t> data);
  // Zero-pads the message so far to a multiple of 16 bytes (RFC 8439 §2.8's pad16).
  void PadToBlock();
  // The tag over everything fed in. The object must not be reused afterwards.
  std::array<uint8_t, kPoly1305TagSize> Finish();

 private:
  // Absorbs whole 16-byte blocks; |hibit| is 2^128 in the top limb, 0 for the final
  // partial block, which carries its own 0x01 terminator.
  void Blocks(const uint8_t* data, size_t len, uint64_t hibit);

  // r, r^2, r^3 and r^4 (mod p).
  uint64_t r_[4][3];
  uint64_t h_[3] = {0, 0, 0};
  uint64_t pad_[2];
  uint8_t buffer_[16];
  size_t buffered_ = 0;
};

// One-shot convenience.
std::array<uint8_t, kPoly1305TagSize> Poly1305Mac(
    std::span<const uint8_t, kPoly1305KeySize> key, std::span<const uint8_t> message);

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_POLY1305_H_
