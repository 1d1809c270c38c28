// ChaCha20 stream cipher (RFC 8439) plus a deterministic CSPRNG built on the keystream.
//
// One keystream core serves every consumer. It makes 4 consecutive 64-byte blocks per
// call, one block per lane of a 4 x uint32 GCC/Clang vector type, so x86-64's SSE2
// baseline (or any other target) runs the 4 blocks side by side with no intrinsics. A
// 4x4 transpose then turns the lanes into 16-byte rows of keystream, which XOR into the
// data as whole vectors (little-endian hosts only; the core static_asserts it).
//
// Uses in this repo:
//   * ChaCha20-Poly1305 (crypto/aead.h): SecureChannel frames, sealed snapshot sections
//     and SEV launch secrets,
//   * CVM guest-memory encryption (cc/sev.h),
//   * CSPRNG for key generation, nonces, attestation challenges,
//   * the keyed permutation generator behind parameter shuffling (crypto-strength
//     permutations are exactly the security knob §4.2 analyzes).
#ifndef DETA_CRYPTO_CHACHA20_H_
#define DETA_CRYPTO_CHACHA20_H_

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.h"
#include "common/secret.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

inline constexpr size_t kChaChaKeySize = 32;
inline constexpr size_t kChaChaNonceSize = 12;
inline constexpr size_t kChaChaBlockSize = 64;
// The core's output per call: 4 consecutive blocks.
inline constexpr size_t kChaChaBatchSize = 4 * kChaChaBlockSize;

// Writes the keystream blocks for counters |counter| .. |counter| + 3 to |out|. The
// 32-bit counter wraps modulo 2^32 without touching the nonce.
void ChaCha20Blocks(const std::array<uint8_t, kChaChaKeySize>& key,
                    const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                    std::span<uint8_t, kChaChaBatchSize> out);

// XORs |data| in place with the keystream for (key, nonce) starting at block |counter|.
// Encryption and decryption are the same operation.
void ChaCha20XorInPlace(const std::array<uint8_t, kChaChaKeySize>& key,
                        const std::array<uint8_t, kChaChaNonceSize>& nonce,
                        uint32_t counter, std::span<uint8_t> data);

// out = in ^ keystream. |in| and |out| have the same size and are either the same bytes
// (ChaCha20XorInPlace) or disjoint.
void ChaCha20Xor(const std::array<uint8_t, kChaChaKeySize>& key,
                 const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                 std::span<const uint8_t> in, std::span<uint8_t> out);

// Out-of-place form returning a new buffer.
Bytes ChaCha20Xor(const std::array<uint8_t, kChaChaKeySize>& key,
                  const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                  const Bytes& data);

// Deterministic cryptographic RNG: ChaCha20 keystream under a seed-derived key.
// Two instances with the same seed bytes produce identical streams — this determinism is
// what lets every party derive the same per-round permutation from the shared permutation
// key and round identifier.
class SecureRng {
 public:
  // Seeds from arbitrary bytes (hashed down to a 256-bit key).
  explicit SecureRng(const Bytes& seed);

  // The stream key predicts every future output (permutations, nonces, challenges);
  // both Secret members wipe on destruction so a scraped heap page cannot replay a
  // role's randomness.

  // Seeds from OS entropy (std::random_device); for long-lived identity keys.
  static SecureRng FromEntropy();

  uint8_t NextByte();
  uint32_t NextU32();
  uint64_t NextU64();
  // Uniform in [0, bound), bound > 0, rejection-sampled (no modulo bias).
  uint64_t NextBelow(uint64_t bound);
  Bytes NextBytes(size_t n);

  template <size_t N>
  std::array<uint8_t, N> NextArray() {
    std::array<uint8_t, N> out;
    Fill(out);
    return out;
  }

  // Exact generator state (key, nonce, block counter, unconsumed keystream), for
  // checkpoint/resume: a restored SecureRng continues the identical stream. The state
  // contains the stream key — callers must seal it before it reaches disk.
  Bytes SerializeState() const;
  // False (state unchanged) when |data| is not a serialized SecureRng state.
  bool RestoreState(const Bytes& data);

 private:
  // Refills the buffer with the next 4 blocks (1 block when 4 would straddle the nonce
  // rollover), so the stream is the same as one block at a time.
  void Refill();
  void Fill(std::span<uint8_t> out);

  Secret<std::array<uint8_t, kChaChaKeySize>> key_;
  std::array<uint8_t, kChaChaNonceSize> nonce_{};
  uint32_t counter_ = 0;  // next block to generate
  // Unconsumed keystream predicts future outputs.
  Secret<std::array<uint8_t, kChaChaBatchSize>> block_;
  size_t len_ = 0;  // valid bytes in block_
  size_t pos_ = 0;  // consumed bytes in block_
};

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_CHACHA20_H_
