#include "crypto/poly1305.h"

#include <algorithm>
#include <cstring>

#include "crypto/secure_wipe.h"

namespace deta::crypto {

namespace {

using U128 = unsigned __int128;

constexpr uint64_t kMask44 = (uint64_t{1} << 44) - 1;
constexpr uint64_t kMask42 = (uint64_t{1} << 42) - 1;

uint64_t LoadLe64(const uint8_t* p) {
  return static_cast<uint64_t>(p[0]) | (static_cast<uint64_t>(p[1]) << 8) |
         (static_cast<uint64_t>(p[2]) << 16) | (static_cast<uint64_t>(p[3]) << 24) |
         (static_cast<uint64_t>(p[4]) << 32) | (static_cast<uint64_t>(p[5]) << 40) |
         (static_cast<uint64_t>(p[6]) << 48) | (static_cast<uint64_t>(p[7]) << 56);
}

void StoreLe64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// m = the 16-byte block at |p| in limbs, plus |hibit| (2^128) in the top limb.
void LoadBlock(const uint8_t* p, uint64_t hibit, uint64_t m[3]) {
  uint64_t t0 = LoadLe64(p);
  uint64_t t1 = LoadLe64(p + 8);
  m[0] = t0 & kMask44;
  m[1] = ((t0 >> 44) | (t1 << 20)) & kMask44;
  m[2] = ((t1 >> 24) & kMask42) | hibit;
}

// d += a * b, unreduced. Limbs sit at 2^0, 2^44 and 2^88. A product at 2^(132 + k)
// folds to 2^k times 4 * 5, since 2^130 = 5 (mod p), so b's upper limbs also enter as
// 20 * b.
void MulAdd(const uint64_t a[3], const uint64_t b[3], U128 d[3]) {
  const uint64_t s1 = b[1] * (5 << 2);
  const uint64_t s2 = b[2] * (5 << 2);
  d[0] += U128{a[0]} * b[0] + U128{a[1]} * s2 + U128{a[2]} * s1;
  d[1] += U128{a[0]} * b[1] + U128{a[1]} * b[0] + U128{a[2]} * s2;
  d[2] += U128{a[0]} * b[2] + U128{a[1]} * b[1] + U128{a[2]} * b[0];
}

// h = d (mod p), carried down to h0 < 2^44, h1 < 2^44 + 2^13 and h2 < 2^42, for any
// d[i] < 2^96.
void Carry(const U128 d[3], uint64_t h[3]) {
  U128 d1 = d[1];
  U128 d2 = d[2];
  uint64_t c = static_cast<uint64_t>(d[0] >> 44);
  h[0] = static_cast<uint64_t>(d[0]) & kMask44;
  d1 += c;
  c = static_cast<uint64_t>(d1 >> 44);
  h[1] = static_cast<uint64_t>(d1) & kMask44;
  d2 += c;
  c = static_cast<uint64_t>(d2 >> 42);
  h[2] = static_cast<uint64_t>(d2) & kMask42;
  h[0] += c * 5;
  c = h[0] >> 44;
  h[0] &= kMask44;
  h[1] += c;
}

}  // namespace

Poly1305::Poly1305(std::span<const uint8_t, kPoly1305KeySize> key) {
  uint64_t t0 = LoadLe64(key.data());
  uint64_t t1 = LoadLe64(key.data() + 8);
  // r is clamped as RFC 8439 §2.5.1 requires, then split into 44/44/42-bit limbs.
  r_[0][0] = t0 & 0xffc0fffffffULL;
  r_[0][1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
  r_[0][2] = (t1 >> 24) & 0x00ffffffc0fULL;
  for (int k = 1; k < 4; ++k) {
    U128 d[3] = {0, 0, 0};
    MulAdd(r_[k - 1], r_[0], d);
    Carry(d, r_[k]);
  }
  pad_[0] = LoadLe64(key.data() + 16);
  pad_[1] = LoadLe64(key.data() + 24);
}

Poly1305::~Poly1305() {
  SecureWipe(r_, sizeof(r_));
  SecureWipe(h_, sizeof(h_));
  SecureWipe(pad_, sizeof(pad_));
  SecureWipe(buffer_, sizeof(buffer_));
}

void Poly1305::Blocks(const uint8_t* data, size_t len, uint64_t hibit) {
  uint64_t h[3] = {h_[0], h_[1], h_[2]};
  // Four blocks per carry chain: h = (h + m0) r^4 + m1 r^3 + m2 r^2 + m3 r, the value four
  // one-block steps give mod p, so every tag is the same. The limbs of h + m0 are below
  // 2^45, 2^45 and 2^43, those of a power of r below 2^44, 2^44 + 2^13 and 2^42, so each
  // of an output limb's 12 products is below 2^92 and their sum below 2^96.
  for (; len >= 64; data += 64, len -= 64) {
    U128 d[3] = {0, 0, 0};
    uint64_t m[3];
    LoadBlock(data, hibit, m);
    for (int i = 0; i < 3; ++i) {
      m[i] += h[i];
    }
    MulAdd(m, r_[3], d);
    for (int k = 1; k < 4; ++k) {
      LoadBlock(data + 16 * k, hibit, m);
      MulAdd(m, r_[3 - k], d);
    }
    Carry(d, h);
  }
  for (; len >= 16; data += 16, len -= 16) {
    U128 d[3] = {0, 0, 0};
    uint64_t m[3];
    LoadBlock(data, hibit, m);
    for (int i = 0; i < 3; ++i) {
      m[i] += h[i];
    }
    MulAdd(m, r_[0], d);
    Carry(d, h);
  }
  std::copy(h, h + 3, h_);
}

void Poly1305::Update(std::span<const uint8_t> data) {
  if (data.empty()) {
    return;
  }
  const uint8_t* p = data.data();
  size_t len = data.size();
  if (buffered_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ < sizeof(buffer_)) {
      return;
    }
    Blocks(buffer_, sizeof(buffer_), uint64_t{1} << 40);
    buffered_ = 0;
  }
  size_t whole = len & ~size_t{15};
  Blocks(p, whole, uint64_t{1} << 40);
  std::memcpy(buffer_, p + whole, len - whole);
  buffered_ = len - whole;
}

void Poly1305::PadToBlock() {
  if (buffered_ == 0) {
    return;
  }
  std::memset(buffer_ + buffered_, 0, sizeof(buffer_) - buffered_);
  Blocks(buffer_, sizeof(buffer_), uint64_t{1} << 40);
  buffered_ = 0;
}

std::array<uint8_t, kPoly1305TagSize> Poly1305::Finish() {
  if (buffered_ > 0) {
    buffer_[buffered_] = 1;
    std::memset(buffer_ + buffered_ + 1, 0, sizeof(buffer_) - buffered_ - 1);
    Blocks(buffer_, sizeof(buffer_), 0);
    buffered_ = 0;
  }

  // Fully carry h.
  uint64_t h0 = h_[0];
  uint64_t h1 = h_[1];
  uint64_t h2 = h_[2];
  uint64_t c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += c;
  c = h2 >> 42;
  h2 &= kMask42;
  h0 += c * 5;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += c;

  // g = h + 5 - 2^130 = h - p; keep it when it did not go negative (h >= p).
  uint64_t g0 = h0 + 5;
  c = g0 >> 44;
  g0 &= kMask44;
  uint64_t g1 = h1 + c;
  c = g1 >> 44;
  g1 &= kMask44;
  uint64_t g2 = h2 + c - (uint64_t{1} << 42);
  uint64_t keep_g = (g2 >> 63) - 1;  // all ones when g2 did not borrow
  h0 = (h0 & ~keep_g) | (g0 & keep_g);
  h1 = (h1 & ~keep_g) | (g1 & keep_g);
  h2 = (h2 & ~keep_g) | (g2 & keep_g);

  // tag = (h + pad) mod 2^128.
  uint64_t t0 = pad_[0];
  uint64_t t1 = pad_[1];
  h0 += t0 & kMask44;
  c = h0 >> 44;
  h0 &= kMask44;
  h1 += (((t0 >> 44) | (t1 << 20)) & kMask44) + c;
  c = h1 >> 44;
  h1 &= kMask44;
  h2 += ((t1 >> 24) & kMask42) + c;
  h2 &= kMask42;

  std::array<uint8_t, kPoly1305TagSize> tag;
  StoreLe64(tag.data(), h0 | (h1 << 44));
  StoreLe64(tag.data() + 8, (h1 >> 20) | (h2 << 24));
  return tag;
}

std::array<uint8_t, kPoly1305TagSize> Poly1305Mac(
    std::span<const uint8_t, kPoly1305KeySize> key, std::span<const uint8_t> message) {
  Poly1305 mac(key);
  mac.Update(message);
  return mac.Finish();
}

}  // namespace deta::crypto
