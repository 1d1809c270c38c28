// ChaCha20 stream cipher (RFC 8439) plus a deterministic CSPRNG built on the keystream.
//
// One keystream core serves every consumer. It is one block-function template over a
// GCC/Clang vector of 32-bit lanes, one block per lane, built at three widths: 4 lanes
// (x86-64's SSE2 baseline, or whatever vector unit another target has), 8 (AVX2) and
// 16 (AVX-512F). Each width is one entry point compiled for its instruction set, and the
// widest the CPU supports is picked once per process, so every width yields the same
// keystream bit for bit. A transpose inside each 128-bit group, then one across groups,
// turns the lanes into the keystream's bytes in stream order, which XOR into the data as
// whole vectors (little-endian hosts only; the core static_asserts it).
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
#include <cstring>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/secret.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

inline constexpr size_t kChaChaKeySize = 32;
inline constexpr size_t kChaChaNonceSize = 12;
inline constexpr size_t kChaChaBlockSize = 64;
// ChaCha20Blocks' output: 4 consecutive blocks.
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

// Blocks per step of the keystream core every ChaCha20 call in this process runs: 16, 8
// or 4, the widest the CPU supports. Telemetry (the crypto.chacha20.lanes gauge) and the
// micro benches' context report it, since kernel timings differ by width.
int ChaCha20Lanes();

// One width of the keystream core: out = in ^ keystream over |n| bytes from block
// |counter|, as ChaCha20Xor, |lanes| blocks per step. |in| and |out| are the same bytes
// or disjoint.
struct ChaCha20Kernel {
  int lanes;
  void (*xor_stream)(const std::array<uint8_t, kChaChaKeySize>& key,
                     const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                     const uint8_t* in, uint8_t* out, size_t n);
};

// Every width this CPU can run, narrowest first; ChaCha20Lanes() is the last. Tests run
// each against a scalar oracle, so the widths the process does not pick stay covered.
std::vector<ChaCha20Kernel> ChaCha20Kernels();

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
  uint64_t NextU64() {
    // The first word drawn is the high half. The buffer holds little-endian words
    // (chacha20.cc static_asserts a little-endian host), so swapping the halves of
    // the 8 bytes read as one word gives (first << 32) | second.
    if (len_ - pos_ < 8) {
      return NextU64Straddling();
    }
    uint64_t v;
    std::memcpy(&v, block_.ExposeForCrypto().data() + pos_, sizeof(v));
    pos_ += 8;
    return (v << 32) | (v >> 32);
  }
  // Uniform in [0, bound), bound > 0, rejection-sampled (no modulo bias).
  uint64_t NextBelow(uint64_t bound) {
    DETA_CHECK(bound > 0);
    // Draws below the threshold 2^64 mod |bound| are rejected. The threshold is below
    // |bound|, so a draw at or above |bound| is accepted without dividing to compute it.
    for (;;) {
      uint64_t r = NextU64();
      if (r >= bound || r >= (0ULL - bound) % bound) {
        return r % bound;
      }
    }
  }
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
  // Blocks per refill, whatever the core's width, so a serialized state has one format
  // on every host.
  static constexpr size_t kRefillBlocks = 16;

  // Refills the buffer with the next 16 blocks (1 block when 16 would straddle the nonce
  // rollover), so the stream is the same as one block at a time.
  void Refill();
  void Fill(std::span<uint8_t> out);
  // NextU64 when fewer than 8 bytes are buffered.
  uint64_t NextU64Straddling();

  Secret<std::array<uint8_t, kChaChaKeySize>> key_;
  std::array<uint8_t, kChaChaNonceSize> nonce_{};
  uint32_t counter_ = 0;  // next block to generate
  // Unconsumed keystream predicts future outputs.
  Secret<std::array<uint8_t, kRefillBlocks * kChaChaBlockSize>> block_;
  size_t len_ = 0;  // valid bytes in block_
  size_t pos_ = 0;  // consumed bytes in block_
};

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_CHACHA20_H_
