#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>

#include "common/check.h"
#include "common/telemetry.h"
#include "crypto/sha256.h"

namespace deta::crypto {

namespace {

// The core stores its 32-bit lanes straight into the keystream with memcpy, which is the
// RFC's little-endian byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the ChaCha20 core memcpys its 32-bit lanes as keystream bytes; port it "
              "before building on a big-endian target");

// Lanes of 32-bit words; lane j carries block counter + j. GCC and Clang lower the
// element-wise operators and shuffles to the instruction set of the function they are
// inlined into: SSE2 on baseline x86-64 (or another target's vector unit or scalar
// code), AVX2 or AVX-512F inside the entry points below that ask for them. Helpers take
// vectors by reference and are always inlined, so no vector crosses a call boundary.
using U32x4 = uint32_t __attribute__((vector_size(16)));
using U32x8 = uint32_t __attribute__((vector_size(32)));
using U32x16 = uint32_t __attribute__((vector_size(64)));

template <typename V>
inline constexpr int kLanes = sizeof(V) / sizeof(uint32_t);

// The keystream of kLanes<V> blocks in stream order, 16 words per block.
template <typename V>
using Stream = V[16];

template <int N, typename V>
[[gnu::always_inline]] inline void Rotl(V& x) {
  x = (x << N) | (x >> (32 - N));
}

template <typename V>
[[gnu::always_inline]] inline void QuarterRound(V& a, V& b, V& c, V& d) {
  a += b;
  d ^= a;
  Rotl<16>(d);
  c += d;
  b ^= c;
  Rotl<12>(b);
  a += b;
  d ^= a;
  Rotl<8>(d);
  c += d;
  b ^= c;
  Rotl<7>(b);
}

// Transposes, inside each 128-bit group, the 4x4 word matrix whose rows are a, b, c and
// d.
[[gnu::always_inline]] inline void Transpose(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
  U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
  U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
}

[[gnu::always_inline]] inline void Transpose(U32x8& a, U32x8& b, U32x8& c, U32x8& d) {
  U32x8 ab_lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 4, 12, 5, 13);
  U32x8 ab_hi = __builtin_shufflevector(a, b, 2, 10, 3, 11, 6, 14, 7, 15);
  U32x8 cd_lo = __builtin_shufflevector(c, d, 0, 8, 1, 9, 4, 12, 5, 13);
  U32x8 cd_hi = __builtin_shufflevector(c, d, 2, 10, 3, 11, 6, 14, 7, 15);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 8, 9, 4, 5, 12, 13);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 10, 11, 6, 7, 14, 15);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 8, 9, 4, 5, 12, 13);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 10, 11, 6, 7, 14, 15);
}

[[gnu::always_inline]] inline void Transpose(U32x16& a, U32x16& b, U32x16& c, U32x16& d) {
  U32x16 ab_lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 4, 20, 5, 21, 8, 24, 9, 25, 12,
                                         28, 13, 29);
  U32x16 ab_hi = __builtin_shufflevector(a, b, 2, 18, 3, 19, 6, 22, 7, 23, 10, 26, 11, 27,
                                         14, 30, 15, 31);
  U32x16 cd_lo = __builtin_shufflevector(c, d, 0, 16, 1, 17, 4, 20, 5, 21, 8, 24, 9, 25, 12,
                                         28, 13, 29);
  U32x16 cd_hi = __builtin_shufflevector(c, d, 2, 18, 3, 19, 6, 22, 7, 23, 10, 26, 11, 27,
                                         14, 30, 15, 31);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13,
                              28, 29);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14,
                              15, 30, 31);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13,
                              28, 29);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14,
                              15, 30, 31);
}

// After Transpose, 128-bit group q of row 4r + j holds words 4r..4r+3 of block 4q + j.
// These put those groups in stream order.
[[gnu::always_inline]] inline void ToStream(const U32x4 (&x)[16], Stream<U32x4>& out) {
  for (int j = 0; j < 4; ++j) {
    for (int r = 0; r < 4; ++r) {
      out[4 * j + r] = x[4 * r + j];
    }
  }
}

// Block 4q + j is two vectors: words 0-7 from rows 0 and 1, words 8-15 from rows 2 and 3.
[[gnu::always_inline]] inline void ToStream(const U32x8 (&x)[16], Stream<U32x8>& out) {
  for (int j = 0; j < 4; ++j) {
    for (int h = 0; h < 2; ++h) {
      const U32x8& even = x[8 * h + j];
      const U32x8& odd = x[8 * h + 4 + j];
      out[2 * j + h] = __builtin_shufflevector(even, odd, 0, 1, 2, 3, 8, 9, 10, 11);
      out[2 * (4 + j) + h] = __builtin_shufflevector(even, odd, 4, 5, 6, 7, 12, 13, 14, 15);
    }
  }
}

// Block 4q + j is one vector: group q of rows 0-3, a 4x4 transpose of 128-bit groups.
[[gnu::always_inline]] inline void ToStream(const U32x16 (&x)[16], Stream<U32x16>& out) {
  for (int j = 0; j < 4; ++j) {
    const U32x16& r0 = x[j];
    const U32x16& r1 = x[4 + j];
    const U32x16& r2 = x[8 + j];
    const U32x16& r3 = x[12 + j];
    U32x16 lo01 = __builtin_shufflevector(r0, r1, 0, 1, 2, 3, 16, 17, 18, 19, 4, 5, 6, 7, 20,
                                          21, 22, 23);
    U32x16 hi01 = __builtin_shufflevector(r0, r1, 8, 9, 10, 11, 24, 25, 26, 27, 12, 13, 14,
                                          15, 28, 29, 30, 31);
    U32x16 lo23 = __builtin_shufflevector(r2, r3, 0, 1, 2, 3, 16, 17, 18, 19, 4, 5, 6, 7, 20,
                                          21, 22, 23);
    U32x16 hi23 = __builtin_shufflevector(r2, r3, 8, 9, 10, 11, 24, 25, 26, 27, 12, 13, 14,
                                          15, 28, 29, 30, 31);
    out[j] = __builtin_shufflevector(lo01, lo23, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20,
                                     21, 22, 23);
    out[4 + j] = __builtin_shufflevector(lo01, lo23, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26,
                                         27, 28, 29, 30, 31);
    out[8 + j] = __builtin_shufflevector(hi01, hi23, 0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19,
                                         20, 21, 22, 23);
    out[12 + j] = __builtin_shufflevector(hi01, hi23, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26,
                                          27, 28, 29, 30, 31);
  }
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

// The input words of kLanes<V> consecutive blocks. Holds the expanded key, so it wipes
// itself.
template <typename V>
class BlockBatch {
 public:
  [[gnu::always_inline]] BlockBatch(const std::array<uint8_t, kChaChaKeySize>& key,
                                    const std::array<uint8_t, kChaChaNonceSize>& nonce,
                                    uint32_t counter) {
    // A scalar operand is broadcast to every lane.
    input_[0] = V{} + 0x61707865u;
    input_[1] = V{} + 0x3320646eu;
    input_[2] = V{} + 0x79622d32u;
    input_[3] = V{} + 0x6b206574u;
    for (int i = 0; i < 8; ++i) {
      input_[4 + i] = V{} + LoadLe32(key.data() + 4 * i);
    }
    // Unsigned lanes wrap modulo 2^32, leaving the nonce words alone.
    for (int j = 0; j < kLanes<V>; ++j) {
      input_[12][j] = counter + static_cast<uint32_t>(j);
    }
    for (int i = 0; i < 3; ++i) {
      input_[13 + i] = V{} + LoadLe32(nonce.data() + 4 * i);
    }
  }
  BlockBatch(const BlockBatch&) = delete;
  BlockBatch& operator=(const BlockBatch&) = delete;
  ~BlockBatch() { SecureWipe(input_, sizeof(input_)); }

  // Writes the current blocks to |out| and steps every lane kLanes<V> blocks on.
  [[gnu::always_inline]] void Next(Stream<V>& out) {
    V x[16];
    for (int i = 0; i < 16; ++i) {
      x[i] = input_[i];
    }
    for (int round = 0; round < 10; ++round) {
      QuarterRound(x[0], x[4], x[8], x[12]);
      QuarterRound(x[1], x[5], x[9], x[13]);
      QuarterRound(x[2], x[6], x[10], x[14]);
      QuarterRound(x[3], x[7], x[11], x[15]);
      QuarterRound(x[0], x[5], x[10], x[15]);
      QuarterRound(x[1], x[6], x[11], x[12]);
      QuarterRound(x[2], x[7], x[8], x[13]);
      QuarterRound(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; ++i) {
      x[i] += input_[i];
    }
    // x[i] holds word i of every block.
    for (int r = 0; r < 4; ++r) {
      Transpose(x[4 * r], x[4 * r + 1], x[4 * r + 2], x[4 * r + 3]);
    }
    ToStream(x, out);
    input_[12] += static_cast<uint32_t>(kLanes<V>);
  }

 private:
  V input_[16];
};

// out = in ^ stream over the first n bytes of it: whole vectors, then the rest byte by
// byte. |in| and |out| are the same bytes or disjoint.
template <typename V>
[[gnu::always_inline]] inline void XorStream(const uint8_t* in, uint8_t* out,
                                             const Stream<V>& stream, size_t n) {
  size_t i = 0;
  for (; sizeof(V) * i + sizeof(V) <= n; ++i) {
    V v;
    std::memcpy(&v, in + sizeof(V) * i, sizeof(V));
    v ^= stream[i];
    std::memcpy(out + sizeof(V) * i, &v, sizeof(V));
  }
  const auto* keystream = reinterpret_cast<const uint8_t*>(stream);
  for (size_t b = sizeof(V) * i; b < n; ++b) {
    out[b] = in[b] ^ keystream[b];
  }
}

template <typename V>
[[gnu::always_inline]] inline void XorKeystream(
    const std::array<uint8_t, kChaChaKeySize>& key,
    const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter, const uint8_t* in,
    uint8_t* out, size_t n) {
  constexpr size_t kBatch = kLanes<V> * kChaChaBlockSize;
  BlockBatch<V> batch(key, nonce, counter);
  Stream<V> stream;
  size_t offset = 0;
  for (; n - offset >= kBatch; offset += kBatch) {
    batch.Next(stream);
    XorStream(in + offset, out + offset, stream, kBatch);
  }
  if (offset < n) {
    batch.Next(stream);
    XorStream(in + offset, out + offset, stream, n - offset);
  }
  SecureWipe(stream, sizeof(stream));
}

// One entry point per width. Only these integer kernels carry a target attribute; the
// rest of the program, its float code included, keeps the baseline instruction set. On
// targets other than x86-64 the 4-lane one is the only one.
void XorStreamX4(const std::array<uint8_t, kChaChaKeySize>& key,
                 const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                 const uint8_t* in, uint8_t* out, size_t n) {
  XorKeystream<U32x4>(key, nonce, counter, in, out, n);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void XorStreamX8(const std::array<uint8_t, kChaChaKeySize>& key,
                                         const std::array<uint8_t, kChaChaNonceSize>& nonce,
                                         uint32_t counter, const uint8_t* in, uint8_t* out,
                                         size_t n) {
  XorKeystream<U32x8>(key, nonce, counter, in, out, n);
}

[[gnu::target("avx512f")]] void XorStreamX16(
    const std::array<uint8_t, kChaChaKeySize>& key,
    const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter, const uint8_t* in,
    uint8_t* out, size_t n) {
  XorKeystream<U32x16>(key, nonce, counter, in, out, n);
}
#endif

// The widest width the CPU supports, picked on first use.
const ChaCha20Kernel& Kernel() {
  static const ChaCha20Kernel kernel = [] {
    ChaCha20Kernel widest = ChaCha20Kernels().back();
    telemetry::MetricsRegistry::Global()
        .GetGauge("crypto.chacha20.lanes")
        .Set(widest.lanes);
    return widest;
  }();
  return kernel;
}

}  // namespace

int ChaCha20Lanes() { return Kernel().lanes; }

std::vector<ChaCha20Kernel> ChaCha20Kernels() {
  std::vector<ChaCha20Kernel> kernels = {{4, &XorStreamX4}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({8, &XorStreamX8});
  }
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({16, &XorStreamX16});
  }
#endif
  return kernels;
}

void ChaCha20Blocks(const std::array<uint8_t, kChaChaKeySize>& key,
                    const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                    std::span<uint8_t, kChaChaBatchSize> out) {
  std::fill(out.begin(), out.end(), 0);
  Kernel().xor_stream(key, nonce, counter, out.data(), out.data(), out.size());
}

void ChaCha20Xor(const std::array<uint8_t, kChaChaKeySize>& key,
                 const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                 std::span<const uint8_t> in, std::span<uint8_t> out) {
  DETA_CHECK_EQ(in.size(), out.size());
  Kernel().xor_stream(key, nonce, counter, in.data(), out.data(), in.size());
}

void ChaCha20XorInPlace(const std::array<uint8_t, kChaChaKeySize>& key,
                        const std::array<uint8_t, kChaChaNonceSize>& nonce,
                        uint32_t counter, std::span<uint8_t> data) {
  ChaCha20Xor(key, nonce, counter, data, data);
}

Bytes ChaCha20Xor(const std::array<uint8_t, kChaChaKeySize>& key,
                  const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                  const Bytes& data) {
  Bytes out(data.size());
  ChaCha20Xor(key, nonce, counter, data, out);
  return out;
}

SecureRng::SecureRng(const Bytes& seed) {
  Bytes digest = Sha256Digest(seed);
  std::copy(digest.begin(), digest.end(), key_.ExposeMutable().begin());
  SecureWipe(digest);
}

SecureRng SecureRng::FromEntropy() {
  std::random_device rd;
  Bytes seed;
  for (int i = 0; i < 8; ++i) {
    uint32_t v = rd();
    AppendU32(seed, v);
  }
  return SecureRng(seed);
}

void SecureRng::Refill() {
  auto& block = block_.ExposeMutable();
  // The core's counter wraps without touching the nonce, so a refill that would cross
  // block 2^32 takes only its first block; the last few blocks before the rollover come
  // one at a time.
  uint32_t blocks = counter_ > 0xffffffffu - (kRefillBlocks - 1) ? 1 : kRefillBlocks;
  len_ = blocks * kChaChaBlockSize;
  std::fill(block.begin(), block.begin() + static_cast<long>(len_), 0);
  Kernel().xor_stream(key_.ExposeForCrypto(), nonce_, counter_, block.data(), block.data(),
                      len_);
  SecureWipe(block.data() + len_, block.size() - len_);
  counter_ += blocks;
  if (counter_ == 0) {
    // 256 GiB of stream exhausted; roll the nonce forward.
    for (auto& b : nonce_) {
      if (++b != 0) {
        break;
      }
    }
  }
  pos_ = 0;
}

void SecureRng::Fill(std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    if (pos_ == len_) {
      Refill();
    }
    size_t n = std::min(out.size() - done, len_ - pos_);
    std::memcpy(out.data() + done, block_.ExposeForCrypto().data() + pos_, n);
    pos_ += n;
    done += n;
  }
}

uint8_t SecureRng::NextByte() {
  if (pos_ == len_) {
    Refill();
  }
  return block_.ExposeForCrypto()[pos_++];
}

uint32_t SecureRng::NextU32() {
  if (len_ - pos_ < 4) {
    uint8_t bytes[4];
    Fill(bytes);
    return LoadLe32(bytes);
  }
  uint32_t v = LoadLe32(block_.ExposeForCrypto().data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t SecureRng::NextU64Straddling() {
  uint64_t high = NextU32();
  return (high << 32) | NextU32();
}

Bytes SecureRng::NextBytes(size_t n) {
  Bytes out(n);
  Fill(out);
  return out;
}

Bytes SecureRng::SerializeState() const {
  // ExposeForSeal: this blob is checkpoint state; the persist layer seals it under the
  // role's SealKey before it can reach disk (enforced end-to-end by deta_taintcheck).
  const auto& key = key_.ExposeForSeal();
  const auto& block = block_.ExposeForSeal();
  Bytes out;
  out.insert(out.end(), key.begin(), key.end());
  out.insert(out.end(), nonce_.begin(), nonce_.end());
  AppendU32(out, counter_);
  AppendU64(out, static_cast<uint64_t>(pos_));
  // The buffered keystream is stored verbatim: replaying it exactly avoids having to
  // re-derive a partially consumed batch across the counter/nonce rollover.
  AppendU64(out, static_cast<uint64_t>(len_));
  out.insert(out.end(), block.begin(), block.begin() + static_cast<long>(len_));
  return out;
}

bool SecureRng::RestoreState(const Bytes& data) {
  const size_t fixed = kChaChaKeySize + kChaChaNonceSize + sizeof(uint32_t) +
                       2 * sizeof(uint64_t);
  if (data.size() < fixed) {
    return false;
  }
  size_t offset = kChaChaKeySize + kChaChaNonceSize;
  uint32_t counter = ReadU32(data, offset);
  uint64_t pos = ReadU64(data, offset + sizeof(uint32_t));
  uint64_t block_size = ReadU64(data, offset + sizeof(uint32_t) + sizeof(uint64_t));
  // The size check admits every state format so far: 4-block refills wrote up to 256
  // bytes of keystream, 16-block ones up to 1 KiB.
  if (block_size > block_.ExposeForCrypto().size() || pos > block_size ||
      data.size() != fixed + block_size) {
    return false;
  }
  std::copy(data.begin(), data.begin() + kChaChaKeySize, key_.ExposeMutable().begin());
  std::copy(data.begin() + kChaChaKeySize, data.begin() + static_cast<long>(offset),
            nonce_.begin());
  counter_ = counter;
  pos_ = static_cast<size_t>(pos);
  len_ = static_cast<size_t>(block_size);
  auto& block = block_.ExposeMutable();
  std::copy(data.begin() + static_cast<long>(fixed), data.end(), block.begin());
  SecureWipe(block.data() + len_, block.size() - len_);
  return true;
}

}  // namespace deta::crypto
