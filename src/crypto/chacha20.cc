#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <random>

#include "common/check.h"
#include "crypto/sha256.h"

namespace deta::crypto {

namespace {

// The core stores its 32-bit lanes straight into the keystream with memcpy, which is the
// RFC's little-endian byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the ChaCha20 core memcpys its 32-bit lanes as keystream bytes; port it "
              "before building on a big-endian target");

// Four lanes of 32-bit words; lane j carries block counter + j. GCC and Clang lower the
// element-wise operators and shuffles to SSE2 on x86-64 and to whatever vector unit (or
// scalar code) another target has.
using U32x4 = uint32_t __attribute__((vector_size(16)));

U32x4 Splat(uint32_t v) { return U32x4{v, v, v, v}; }

U32x4 Rotl(U32x4 x, int n) { return (x << n) | (x >> (32 - n)); }

void QuarterRound(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

// Transposes the 4x4 word matrix whose rows are a, b, c and d.
void Transpose(U32x4& a, U32x4& b, U32x4& c, U32x4& d) {
  U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
  U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
  U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
  U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
  a = __builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5);
  b = __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7);
  c = __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5);
  d = __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7);
}

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

// 4 blocks of keystream in stream order: row 4 * j + r holds words 4r..4r+3 of block j,
// so the rows' bytes are the keystream's bytes.
using Stream = U32x4[16];

// The input words of 4 consecutive blocks. Holds the expanded key, so it wipes itself.
class BlockBatch {
 public:
  BlockBatch(const std::array<uint8_t, kChaChaKeySize>& key,
             const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter) {
    input_[0] = Splat(0x61707865);
    input_[1] = Splat(0x3320646e);
    input_[2] = Splat(0x79622d32);
    input_[3] = Splat(0x6b206574);
    for (int i = 0; i < 8; ++i) {
      input_[4 + i] = Splat(LoadLe32(key.data() + 4 * i));
    }
    // Unsigned lanes wrap modulo 2^32, leaving the nonce words alone.
    input_[12] = U32x4{counter, counter + 1, counter + 2, counter + 3};
    for (int i = 0; i < 3; ++i) {
      input_[13 + i] = Splat(LoadLe32(nonce.data() + 4 * i));
    }
  }
  BlockBatch(const BlockBatch&) = delete;
  BlockBatch& operator=(const BlockBatch&) = delete;
  ~BlockBatch() { SecureWipe(input_, sizeof(input_)); }

  // Writes the current 4 blocks to |out| and steps every lane 4 blocks on.
  void Next(Stream& out) {
    U32x4 x[16];
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
    // x[i] holds word i of the 4 blocks; after transposing group r, x[4r + j] holds
    // words 4r..4r+3 of block j.
    for (int r = 0; r < 4; ++r) {
      Transpose(x[4 * r], x[4 * r + 1], x[4 * r + 2], x[4 * r + 3]);
      for (int j = 0; j < 4; ++j) {
        out[4 * j + r] = x[4 * r + j];
      }
    }
    input_[12] += Splat(4);
  }

 private:
  U32x4 input_[16];
};

// out = in ^ stream over the first n <= 256 bytes: whole 16-byte rows as vectors, then
// the rest byte by byte. |in| and |out| are the same bytes or disjoint.
void XorStream(const uint8_t* in, uint8_t* out, const Stream& stream, size_t n) {
  size_t row = 0;
  for (; 16 * row + 16 <= n; ++row) {
    U32x4 v;
    std::memcpy(&v, in + 16 * row, 16);
    v ^= stream[row];
    std::memcpy(out + 16 * row, &v, 16);
  }
  const auto* keystream = reinterpret_cast<const uint8_t*>(stream);
  for (size_t i = 16 * row; i < n; ++i) {
    out[i] = in[i] ^ keystream[i];
  }
}

}  // namespace

void ChaCha20Blocks(const std::array<uint8_t, kChaChaKeySize>& key,
                    const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                    std::span<uint8_t, kChaChaBatchSize> out) {
  Stream stream;
  BlockBatch(key, nonce, counter).Next(stream);
  std::memcpy(out.data(), stream, kChaChaBatchSize);
  SecureWipe(stream, sizeof(stream));
}

void ChaCha20Xor(const std::array<uint8_t, kChaChaKeySize>& key,
                 const std::array<uint8_t, kChaChaNonceSize>& nonce, uint32_t counter,
                 std::span<const uint8_t> in, std::span<uint8_t> out) {
  DETA_CHECK_EQ(in.size(), out.size());
  BlockBatch batch(key, nonce, counter);
  Stream stream;
  size_t offset = 0;
  for (; in.size() - offset >= kChaChaBatchSize; offset += kChaChaBatchSize) {
    batch.Next(stream);
    XorStream(in.data() + offset, out.data() + offset, stream, kChaChaBatchSize);
  }
  if (offset < in.size()) {
    batch.Next(stream);
    XorStream(in.data() + offset, out.data() + offset, stream, in.size() - offset);
  }
  SecureWipe(stream, sizeof(stream));
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
  ChaCha20Blocks(key_.ExposeForCrypto(), nonce_, counter_, block);
  // The core's counter wraps without touching the nonce, so a batch that would cross
  // block 2^32 keeps only its first block; the 3 blocks before the rollover come one
  // at a time.
  uint32_t blocks = counter_ > 0xfffffffcu ? 1 : 4;
  len_ = blocks * kChaChaBlockSize;
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

uint64_t SecureRng::NextU64() {
  // The first word drawn is the high half.
  if (len_ - pos_ < 8) {
    uint64_t high = NextU32();
    return (high << 32) | NextU32();
  }
  const uint8_t* p = block_.ExposeForCrypto().data() + pos_;
  pos_ += 8;
  return (static_cast<uint64_t>(LoadLe32(p)) << 32) | LoadLe32(p + 4);
}

uint64_t SecureRng::NextBelow(uint64_t bound) {
  DETA_CHECK_GT(bound, 0u);
  // Draws below the threshold 2^64 mod |bound| are rejected. The threshold is below
  // |bound|, so a draw at or above |bound| is accepted without dividing to compute it.
  for (;;) {
    uint64_t r = NextU64();
    if (r >= bound || r >= (0ULL - bound) % bound) {
      return r % bound;
    }
  }
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
  if (block_size > kChaChaBatchSize || pos > block_size ||
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
