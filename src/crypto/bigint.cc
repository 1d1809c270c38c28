#include "crypto/bigint.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "crypto/chacha20.h"
#include "crypto/montgomery.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

namespace {

using u128 = unsigned __int128;

// Kernels on a value held as (limbs, length) with no leading zero limb: the one
// implementation behind Trim, Compare, Sub and ShiftRight. Sub and ShiftRight work in
// place, so Gcd runs them on one buffer and its loop never allocates. Those two are
// always inlined: GCC otherwise keeps ShiftRightLimbs out of line once it has several
// callers, which costs Gcd's loop a call per step.

size_t TrimLimbs(const uint64_t* v, size_t n) {
  while (n > 0 && v[n - 1] == 0) {
    --n;
  }
  return n;
}

// v != 0.
size_t TrailingZeroBits(const uint64_t* v) {
  size_t i = 0;
  while (v[i] == 0) {
    ++i;
  }
  return 64 * i + static_cast<size_t>(__builtin_ctzll(v[i]));
}

// v >>= bits in place; returns the new length.
[[gnu::always_inline]] inline size_t ShiftRightLimbs(uint64_t* v, size_t n, size_t bits) {
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  if (limb_shift >= n) {
    return 0;
  }
  size_t out_n = n - limb_shift;
  for (size_t i = 0; i < out_n; ++i) {
    uint64_t x = v[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < n) {
      x |= v[i + limb_shift + 1] << (64 - bit_shift);
    }
    v[i] = x;
  }
  return TrimLimbs(v, out_n);
}

int CompareLimbs(const uint64_t* u, size_t un, const uint64_t* v, size_t vn) {
  if (un != vn) {
    return un < vn ? -1 : 1;
  }
  for (size_t i = un; i-- > 0;) {
    if (u[i] != v[i]) {
      return u[i] < v[i] ? -1 : 1;
    }
  }
  return 0;
}

// u -= v in place for u >= v (so un >= vn); returns the new length.
[[gnu::always_inline]] inline size_t SubLimbs(uint64_t* u, size_t un, const uint64_t* v,
                                              size_t vn) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < un; ++i) {
    u128 diff = static_cast<u128>(u[i]) - (i < vn ? v[i] : 0) - borrow;
    u[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 127);
  }
  return TrimLimbs(u, un);
}

}  // namespace

BigUint::BigUint(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(value);
  }
}

void BigUint::Trim() { limbs_.resize(TrimLimbs(limbs_.data(), limbs_.size())); }

BigUint BigUint::FromHexString(const std::string& hex) {
  BigUint out;
  for (char c : hex) {
    uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      digit = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      DETA_CHECK_MSG(false, "invalid hex digit in BigUint");
      continue;
    }
    out = out.ShiftLeft(4).Add(BigUint(digit));
  }
  return out;
}

BigUint BigUint::FromBytes(const Bytes& be) {
  BigUint out;
  size_t n = be.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (size_t i = 0; i < n; ++i) {
    // be[i] is the (n-1-i)-th byte from the least-significant end.
    size_t byte_index = n - 1 - i;
    out.limbs_[byte_index / 8] |= static_cast<uint64_t>(be[i]) << (8 * (byte_index % 8));
  }
  out.Trim();
  return out;
}

Bytes BigUint::ToBytes() const {
  if (IsZero()) {
    return Bytes{0x00};
  }
  size_t bytes = (BitLength() + 7) / 8;
  return ToBytesPadded(bytes);
}

Bytes BigUint::ToBytesPadded(size_t n) const {
  DETA_CHECK_LE((BitLength() + 7) / 8, n);
  Bytes out(n, 0);
  for (size_t byte_index = 0; byte_index < n; ++byte_index) {
    size_t limb = byte_index / 8;
    if (limb < limbs_.size()) {
      out[n - 1 - byte_index] =
          static_cast<uint8_t>(limbs_[limb] >> (8 * (byte_index % 8)));
    }
  }
  return out;
}

std::string BigUint::ToHexString() const {
  if (IsZero()) {
    return "0";
  }
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  size_t first = out.find_first_not_of('0');
  return out.substr(first);
}

size_t BigUint::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  return 64 * limbs_.size() - static_cast<size_t>(__builtin_clzll(limbs_.back()));
}

bool BigUint::Bit(size_t i) const {
  size_t limb = i / 64;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 64)) & 1u;
}

int BigUint::Compare(const BigUint& other) const {
  return CompareLimbs(limbs_.data(), limbs_.size(), other.limbs_.data(), other.limbs_.size());
}

BigUint BigUint::Add(const BigUint& other) const {
  BigUint out;
  size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 sum = carry;
    if (i < limbs_.size()) {
      sum += limbs_[i];
    }
    if (i < other.limbs_.size()) {
      sum += other.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  if (carry != 0) {
    out.limbs_.push_back(carry);
  }
  return out;
}

BigUint BigUint::Sub(const BigUint& other) const {
  DETA_CHECK_MSG(*this >= other, "BigUint::Sub would underflow");
  BigUint out = *this;
  out.limbs_.resize(SubLimbs(out.limbs_.data(), out.limbs_.size(), other.limbs_.data(),
                             other.limbs_.size()));
  return out;
}

BigUint BigUint::Mul(const BigUint& other) const {
  if (IsZero() || other.IsZero()) {
    return BigUint();
  }
  BigUint out;
  const size_t m = other.limbs_.size();
  out.limbs_.assign(limbs_.size() + m, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t a = limbs_[i];
    for (size_t j = 0; j < m; ++j) {
      // (2^64 - 1)^2 + 2 * (2^64 - 1) = 2^128 - 1: the sum never overflows.
      u128 cur = static_cast<u128>(a) * other.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    // Earlier rows reach at most limb i + m - 1, so this one is still zero.
    out.limbs_[i + m] = carry;
  }
  out.Trim();
  return out;
}

BigUint BigUint::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigUint copy = *this;
    return copy;
  }
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] = limbs_[i] >> (64 - bit_shift);
    }
  }
  out.Trim();
  return out;
}

BigUint BigUint::ShiftRight(size_t bits) const {
  BigUint out = *this;
  out.limbs_.resize(ShiftRightLimbs(out.limbs_.data(), out.limbs_.size(), bits));
  return out;
}

BigUint::DivResult BigUint::DivMod(const BigUint& divisor) const {
  DETA_CHECK_MSG(!divisor.IsZero(), "division by zero");
  if (*this < divisor) {
    return {BigUint(), *this};
  }
  if (divisor.limbs_.size() == 1) {
    // Fast single-limb path.
    uint64_t d = divisor.limbs_[0];
    BigUint q;
    q.limbs_.resize(limbs_.size());
    uint64_t rem = 0;
    for (size_t i = limbs_.size(); i-- > 0;) {
      u128 cur = (static_cast<u128>(rem) << 64) | limbs_[i];
      q.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = limbs_[i] - q.limbs_[i] * d;  // cur - q * d < d, so its low limb is all of it
    }
    q.Trim();
    return {q, BigUint(rem)};
  }

  // Knuth TAOCP vol. 2, algorithm D. Normalize so the divisor's top limb has its high bit
  // set; this keeps the quotient-digit estimate within 2 of the true digit.
  size_t shift = static_cast<size_t>(__builtin_clzll(divisor.limbs_.back()));
  BigUint u = ShiftLeft(shift);
  BigUint v = divisor.ShiftLeft(shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m + n + 1 limbs.

  BigUint q;
  q.limbs_.assign(m + 1, 0);
  uint64_t v_top = v.limbs_[n - 1];
  uint64_t v_second = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // qhat starts at up to 2^64 + 1 and rhat grows by v_top, so both are 128 bits wide;
    // the loop leaves qhat < 2^64 and compares rhat * 2^64 only while rhat < 2^64.
    u128 numerator = (static_cast<u128>(u.limbs_[j + n]) << 64) | u.limbs_[j + n - 1];
    u128 qhat = numerator / v_top;
    u128 rhat = numerator - qhat * v_top;
    while ((qhat >> 64) != 0 ||
           static_cast<u128>(static_cast<uint64_t>(qhat)) * v_second >
               ((rhat << 64) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if ((rhat >> 64) != 0) {
        break;
      }
    }
    uint64_t digit = static_cast<uint64_t>(qhat);

    // Multiply-subtract digit * v from u[j .. j+n].
    uint64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 p = static_cast<u128>(digit) * v.limbs_[i] + carry;
      carry = static_cast<uint64_t>(p >> 64);
      u128 t = static_cast<u128>(u.limbs_[i + j]) - static_cast<uint64_t>(p) - borrow;
      u.limbs_[i + j] = static_cast<uint64_t>(t);
      borrow = static_cast<uint64_t>(t >> 127);
    }
    u128 t = static_cast<u128>(u.limbs_[j + n]) - carry - borrow;
    u.limbs_[j + n] = static_cast<uint64_t>(t);
    if ((t >> 127) != 0) {
      // The digit was one too large; add v back. The carry out cancels the borrow.
      --digit;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<uint64_t>(sum);
        carry2 = static_cast<uint64_t>(sum >> 64);
      }
      u.limbs_[j + n] += carry2;
    }
    q.limbs_[j] = digit;
  }

  q.Trim();
  u.limbs_.resize(ShiftRightLimbs(u.limbs_.data(), n, shift));
  return {std::move(q), std::move(u)};
}

BigUint BigUint::AddMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return a.Add(b).Mod(m);
}

BigUint BigUint::SubMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  BigUint ra = a.Mod(m);
  BigUint rb = b.Mod(m);
  if (ra >= rb) {
    return ra.Sub(rb);
  }
  return ra.Add(m).Sub(rb);
}

BigUint BigUint::MulMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return a.Mul(b).Mod(m);
}

BigUint BigUint::PowMod(const BigUint& base, const BigUint& exp, const BigUint& m) {
  // Every caller's modulus is odd: Paillier's n^2, p^2 and q^2, and Miller-Rabin's
  // candidates, which trial division by 2 screens out before the first PowMod.
  DETA_CHECK_MSG(m.IsOdd(), "PowMod modulus must be odd");
  if (m == BigUint(1)) {
    return BigUint();
  }
  return MontgomeryContext(m).PowMod(base, exp);
}

BigUint BigUint::FromLimbs(std::vector<uint64_t> limbs) {
  BigUint out;
  out.limbs_ = std::move(limbs);
  out.Trim();
  return out;
}

bool BigUint::InvMod(const BigUint& a, const BigUint& m, BigUint* out) {
  // Extended Euclid on (a mod m, m) tracking Bezout coefficients for a. Signs are handled
  // by keeping coefficients reduced mod m and using SubMod.
  BigUint r0 = m;
  BigUint r1 = a.Mod(m);
  BigUint s0;          // coefficient of a for r0, starts 0
  BigUint s1(1);       // coefficient of a for r1, starts 1
  while (!r1.IsZero()) {
    DivResult d = r0.DivMod(r1);
    BigUint r2 = d.remainder;
    BigUint s2 = SubMod(s0, MulMod(d.quotient, s1, m), m);
    r0 = r1;
    r1 = r2;
    s0 = s1;
    s1 = s2;
  }
  if (r0 != BigUint(1)) {
    return false;
  }
  *out = s0;
  return true;
}

BigUint BigUint::Gcd(const BigUint& a, const BigUint& b) {
  if (a.IsZero() || b.IsZero()) {
    return a.IsZero() ? b : a;
  }
  // Stein: gcd(2^i u', 2^j v') = 2^min(i,j) gcd(u', v') for odd u', v', and for odd
  // u > v, gcd(u, v) = gcd((u - v) / 2^k, v) with u - v even and nonzero.
  const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  std::vector<uint64_t> work(2 * n);
  uint64_t* u = work.data();
  uint64_t* v = u + n;
  std::copy(a.limbs_.begin(), a.limbs_.end(), u);
  std::copy(b.limbs_.begin(), b.limbs_.end(), v);
  size_t u_zeros = TrailingZeroBits(u);
  size_t v_zeros = TrailingZeroBits(v);
  size_t un = ShiftRightLimbs(u, a.limbs_.size(), u_zeros);
  size_t vn = ShiftRightLimbs(v, b.limbs_.size(), v_zeros);
  for (;;) {
    int cmp = CompareLimbs(u, un, v, vn);
    if (cmp == 0) {
      break;
    }
    if (cmp < 0) {
      std::swap(u, v);
      std::swap(un, vn);
    }
    un = SubLimbs(u, un, v, vn);
    un = ShiftRightLimbs(u, un, TrailingZeroBits(u));
  }
  BigUint out =
      FromLimbs(std::vector<uint64_t>(u, u + un)).ShiftLeft(std::min(u_zeros, v_zeros));
  // Callers pass secrets (the Paillier encryption randomness r).
  SecureWipe(work.data(), work.size() * sizeof(uint64_t));
  return out;
}

BigUint BigUint::RandomBelow(SecureRng& rng, const BigUint& bound) {
  DETA_CHECK_MSG(!bound.IsZero(), "RandomBelow bound must be positive");
  size_t bits = bound.BitLength();
  size_t bytes = (bits + 7) / 8;
  for (;;) {
    Bytes raw = rng.NextBytes(bytes);
    // Mask extra high bits so the rejection rate stays below 1/2.
    size_t extra = bytes * 8 - bits;
    if (extra > 0) {
      raw[0] &= static_cast<uint8_t>(0xff >> extra);
    }
    BigUint candidate = FromBytes(raw);
    if (candidate < bound) {
      return candidate;
    }
  }
}

BigUint BigUint::RandomBits(SecureRng& rng, size_t bits) {
  DETA_CHECK_GT(bits, 0u);
  size_t bytes = (bits + 7) / 8;
  Bytes raw = rng.NextBytes(bytes);
  size_t extra = bytes * 8 - bits;
  raw[0] &= static_cast<uint8_t>(0xff >> extra);
  raw[0] |= static_cast<uint8_t>(0x80 >> extra);  // force msb
  return FromBytes(raw);
}

bool BigUint::IsProbablePrime(const BigUint& n, SecureRng& rng, int rounds) {
  if (n < BigUint(2)) {
    return false;
  }
  // Quick trial division by small primes.
  static const uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19, 23, 29,
                                          31, 37, 41, 43, 47, 53, 59, 61, 67, 71};
  for (uint32_t p : kSmallPrimes) {
    BigUint bp(p);
    if (n == bp) {
      return true;
    }
    if (n.Mod(bp).IsZero()) {
      return false;
    }
  }

  // n - 1 = d * 2^r with d odd.
  BigUint n_minus_1 = n.Sub(BigUint(1));
  BigUint d = n_minus_1;
  size_t r = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++r;
  }

  BigUint two(2);
  BigUint n_minus_2 = n.Sub(two);
  for (int round = 0; round < rounds; ++round) {
    // Witness in [2, n-2].
    BigUint a = RandomBelow(rng, n_minus_2.Sub(BigUint(1))).Add(two);
    BigUint x = PowMod(a, d, n);
    if (x == BigUint(1) || x == n_minus_1) {
      continue;
    }
    bool composite = true;
    for (size_t i = 0; i + 1 < r; ++i) {
      x = MulMod(x, x, n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) {
      return false;
    }
  }
  return true;
}

BigUint BigUint::RandomPrime(SecureRng& rng, size_t bits) {
  DETA_CHECK_GE(bits, 8u);
  for (;;) {
    BigUint candidate = RandomBits(rng, bits);
    // Force odd.
    if (!candidate.IsOdd()) {
      candidate = candidate.Add(BigUint(1));
    }
    if (IsProbablePrime(candidate, rng)) {
      return candidate;
    }
  }
}

uint64_t BigUint::ToU64() const { return limbs_.empty() ? 0 : limbs_[0]; }

void BigUint::Wipe() {
  SecureWipe(limbs_.data(), limbs_.size() * sizeof(limbs_[0]));
  limbs_.clear();
}

}  // namespace deta::crypto
