#include "crypto/bigint.h"

#include <algorithm>

#include "common/check.h"
#include "crypto/chacha20.h"
#include "crypto/montgomery.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

// Fixed-buffer helpers for the binary GCD: a value is (limbs, length) with no leading
// zero limb, so comparisons and subtractions shrink with the operands.

size_t TrimmedLength(const uint64_t* v, size_t n) {
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
size_t ShiftRightInPlace(uint64_t* v, size_t n, size_t bits) {
  size_t limb_shift = bits / 64;
  size_t bit_shift = bits % 64;
  size_t out_n = n - limb_shift;
  for (size_t i = 0; i < out_n; ++i) {
    uint64_t x = v[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < n) {
      x |= v[i + limb_shift + 1] << (64 - bit_shift);
    }
    v[i] = x;
  }
  return TrimmedLength(v, out_n);
}

int Compare64(const uint64_t* u, size_t un, const uint64_t* v, size_t vn) {
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

// u -= v for u > v (so un >= vn); returns the new length.
size_t SubInPlace(uint64_t* u, size_t un, const uint64_t* v, size_t vn) {
  uint64_t borrow = 0;
  for (size_t i = 0; i < un; ++i) {
    unsigned __int128 diff =
        static_cast<unsigned __int128>(u[i]) - (i < vn ? v[i] : 0) - borrow;
    u[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 127);
  }
  return TrimmedLength(u, un);
}

}  // namespace

BigUint::BigUint(uint64_t value) {
  if (value != 0) {
    limbs_.push_back(static_cast<uint32_t>(value));
    uint32_t hi = static_cast<uint32_t>(value >> 32);
    if (hi != 0) {
      limbs_.push_back(hi);
    }
  }
}

void BigUint::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

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
  out.limbs_.assign((n + 3) / 4, 0);
  for (size_t i = 0; i < n; ++i) {
    // be[i] is the (n-1-i)-th byte from the least-significant end.
    size_t byte_index = n - 1 - i;
    out.limbs_[byte_index / 4] |= static_cast<uint32_t>(be[i]) << (8 * (byte_index % 4));
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
    size_t limb = byte_index / 4;
    if (limb < limbs_.size()) {
      out[n - 1 - byte_index] =
          static_cast<uint8_t>(limbs_[limb] >> (8 * (byte_index % 4)));
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
    for (int shift = 28; shift >= 0; shift -= 4) {
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
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUint::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1u;
}

int BigUint::Compare(const BigUint& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUint BigUint::Add(const BigUint& other) const {
  BigUint out;
  size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < limbs_.size()) {
      sum += limbs_[i];
    }
    if (i < other.limbs_.size()) {
      sum += other.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  if (carry != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(carry));
  }
  return out;
}

BigUint BigUint::Sub(const BigUint& other) const {
  DETA_CHECK_MSG(*this >= other, "BigUint::Sub would underflow");
  BigUint out;
  out.limbs_.resize(limbs_.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) {
      diff -= static_cast<int64_t>(other.limbs_[i]);
    }
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  DETA_CHECK_EQ(borrow, 0);
  out.Trim();
  return out;
}

BigUint BigUint::Mul(const BigUint& other) const {
  if (IsZero() || other.IsZero()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t a = limbs_[i];
    for (size_t j = 0; j < other.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + a * other.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + other.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.Trim();
  return out;
}

BigUint BigUint::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) {
    BigUint copy = *this;
    return copy;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Trim();
  return out;
}

BigUint BigUint::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    return BigUint();
  }
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Trim();
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
      uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.Trim();
    return {q, BigUint(rem)};
  }

  // Knuth TAOCP vol. 2, algorithm D. Normalize so the divisor's top limb has its high bit
  // set; this keeps the quotient-digit estimate within 2 of the true digit.
  size_t shift = 32 - (divisor.BitLength() % 32);
  if (shift == 32) {
    shift = 0;
  }
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
    uint64_t numerator = (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = numerator / v_top;
    uint64_t rhat = numerator % v_top;
    while (qhat >= kBase ||
           qhat * v_second > ((rhat << 32) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kBase) {
        break;
      }
    }

    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) - static_cast<int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large; add v back.
      t += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<uint32_t>(sum);
        carry2 = sum >> 32;
      }
      t += static_cast<int64_t>(carry2);
      t &= static_cast<int64_t>(kBase - 1);
    }
    u.limbs_[j + n] = static_cast<uint32_t>(t);
    q.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  q.Trim();
  u.limbs_.resize(n);
  u.Trim();
  return {q, u.ShiftRight(shift)};
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

BigUint BigUint::FromLimbs(std::vector<uint32_t> limbs) {
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
  const size_t n = (std::max(a.limbs_.size(), b.limbs_.size()) + 1) / 2;
  std::vector<uint64_t> work(2 * n);
  uint64_t* u = work.data();
  uint64_t* v = u + n;
  a.ToLimbs64(u, n);
  b.ToLimbs64(v, n);
  size_t u_zeros = TrailingZeroBits(u);
  size_t v_zeros = TrailingZeroBits(v);
  size_t un = ShiftRightInPlace(u, TrimmedLength(u, n), u_zeros);
  size_t vn = ShiftRightInPlace(v, TrimmedLength(v, n), v_zeros);
  for (;;) {
    int cmp = Compare64(u, un, v, vn);
    if (cmp == 0) {
      break;
    }
    if (cmp < 0) {
      std::swap(u, v);
      std::swap(un, vn);
    }
    un = SubInPlace(u, un, v, vn);
    un = ShiftRightInPlace(u, un, TrailingZeroBits(u));
  }
  BigUint out = FromLimbs64(u, un).ShiftLeft(std::min(u_zeros, v_zeros));
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

uint64_t BigUint::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) {
    v = limbs_[0];
  }
  if (limbs_.size() > 1) {
    v |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return v;
}

void BigUint::ToLimbs64(uint64_t* out, size_t n) const {
  DETA_CHECK_LE((limbs_.size() + 1) / 2, n);
  for (size_t k = 0; k < n; ++k) {
    uint64_t lo = 2 * k < limbs_.size() ? limbs_[2 * k] : 0;
    uint64_t hi = 2 * k + 1 < limbs_.size() ? limbs_[2 * k + 1] : 0;
    out[k] = lo | (hi << 32);
  }
}

BigUint BigUint::FromLimbs64(const uint64_t* limbs, size_t n) {
  BigUint out;
  out.limbs_.resize(2 * n);
  for (size_t k = 0; k < n; ++k) {
    out.limbs_[2 * k] = static_cast<uint32_t>(limbs[k]);
    out.limbs_[2 * k + 1] = static_cast<uint32_t>(limbs[k] >> 32);
  }
  out.Trim();
  return out;
}

void BigUint::Wipe() {
  SecureWipe(limbs_.data(), limbs_.size() * sizeof(uint32_t));
  limbs_.clear();
}

}  // namespace deta::crypto
