#include "crypto/montgomery.h"

#include <algorithm>
#include <array>
#include <type_traits>

#include "common/check.h"
#include "crypto/secure_wipe.h"

namespace deta::crypto {

namespace {

using u128 = unsigned __int128;

// -m^-1 mod 2^64 by Newton iteration: each step doubles the number of correct bits.
uint64_t NegInverse64(uint64_t m0) {
  uint64_t x = m0;  // correct mod 2^3 for odd m0
  for (int i = 0; i < 5; ++i) {
    x *= 2u - m0 * x;
  }
  return ~x + 1u;  // -x mod 2^64
}

void WipeLimbs(std::vector<uint64_t>& limbs) {
  SecureWipe(limbs.data(), limbs.size() * sizeof(uint64_t));
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigUint& modulus) : modulus_(modulus) {
  DETA_CHECK_MSG(modulus.IsOdd(), "MontgomeryContext requires an odd modulus");
  DETA_CHECK_MSG(modulus > BigUint(1), "MontgomeryContext requires modulus > 1");
  s_ = modulus.limbs().size();
  inv64_ = NegInverse64(modulus.limbs()[0]);
  // R^2 mod m and R mod m with R = 2^(64*s), computed once via the schoolbook divider.
  r2_.resize(s_);
  Import(BigUint(1).ShiftLeft(128 * s_).Mod(modulus), r2_.data());
  one_mont_.resize(s_);
  Import(BigUint(1).ShiftLeft(64 * s_).Mod(modulus), one_mont_.data());
}

MontgomeryContext::~MontgomeryContext() {
  WipeLimbs(r2_);
  WipeLimbs(one_mont_);
  modulus_.Wipe();
}

void MontgomeryContext::Import(const BigUint& a, uint64_t* out) const {
  DETA_CHECK_MSG(a < modulus_, "Montgomery operand not reduced mod m");
  const Limbs& limbs = a.limbs();
  std::fill(std::copy(limbs.begin(), limbs.end(), out), out + s_, uint64_t{0});
}

template <size_t kLimbs>
void MontgomeryContext::MulMontLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out,
                                     uint64_t* t) const {
  // CIOS (coarsely integrated operand scanning): interleaves the schoolbook product
  // with the REDC reduction so the intermediate never exceeds s+2 limbs. Every 128-bit
  // accumulation stays below 2^128: (2^64-1)^2 + 2*(2^64-1) = 2^128 - 1. At a constant
  // width every loop below unrolls completely.
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  const uint64_t* m = modulus_.limbs().data();
  std::fill(t, t + s + 2, uint64_t{0});
  for (size_t i = 0; i < s; ++i) {
    const uint64_t ai = a[i];
    u128 c = 0;
    for (size_t j = 0; j < s; ++j) {
      c = static_cast<u128>(ai) * b[j] + t[j] + static_cast<uint64_t>(c >> 64);
      t[j] = static_cast<uint64_t>(c);
    }
    c = static_cast<u128>(t[s]) + static_cast<uint64_t>(c >> 64);
    t[s] = static_cast<uint64_t>(c);
    t[s + 1] = static_cast<uint64_t>(c >> 64);

    const uint64_t mf = t[0] * inv64_;
    c = static_cast<u128>(mf) * m[0] + t[0];
    for (size_t j = 1; j < s; ++j) {
      c = static_cast<u128>(mf) * m[j] + t[j] + static_cast<uint64_t>(c >> 64);
      t[j - 1] = static_cast<uint64_t>(c);
    }
    c = static_cast<u128>(t[s]) + static_cast<uint64_t>(c >> 64);
    t[s - 1] = static_cast<uint64_t>(c);
    t[s] = t[s + 1] + static_cast<uint64_t>(c >> 64);
  }
  // Conditional final subtraction: the CIOS invariant leaves t < 2m.
  bool ge = t[s] != 0;
  if (!ge) {
    ge = true;
    for (size_t i = s; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < s; ++i) {
      u128 diff = static_cast<u128>(t[i]) - m[i] - borrow;
      out[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 127);
    }
  } else {
    std::copy(t, t + s, out);
  }
}

BigUint MontgomeryContext::ToMont(const BigUint& a) const {
  Limbs work(2 * s_ + 2);
  Import(a, work.data());
  MulMontLimbs<0>(work.data(), r2_.data(), work.data(), work.data() + s_);
  return Export(work.data());
}

BigUint MontgomeryContext::FromMont(const BigUint& a) const {
  Limbs work(3 * s_ + 2);
  uint64_t* one = work.data() + s_;
  Import(a, work.data());
  one[0] = 1;
  MulMontLimbs<0>(work.data(), one, work.data(), one + s_);
  return Export(work.data());
}

BigUint MontgomeryContext::MulMont(const BigUint& a, const BigUint& b) const {
  Limbs work(3 * s_ + 2);
  uint64_t* lb = work.data() + s_;
  Import(a, work.data());
  Import(b, lb);
  MulMontLimbs<0>(work.data(), lb, work.data(), lb + s_);
  return Export(work.data());
}

BigUint MontgomeryContext::MulMod(const BigUint& a, const BigUint& b) const {
  Limbs work(3 * s_ + 2);
  uint64_t* la = work.data();
  uint64_t* lb = la + s_;
  uint64_t* t = lb + s_;
  Import(a, la);
  Import(b, lb);
  // (a*R) * b * R^-1 = a*b ... converting one operand up and multiplying back down
  // costs two passes, same as ToMont+FromMont but without the extra reduction.
  MulMontLimbs<0>(la, r2_.data(), la, t);
  MulMontLimbs<0>(la, lb, la, t);
  return Export(la);
}

template <size_t kLimbs>
BigUint MontgomeryContext::PowModLimbs(const BigUint& base, const BigUint& exp) const {
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  if (exp.IsZero()) {
    return BigUint(1).Mod(modulus_);
  }
  // One buffer: table[w] = base^w in Montgomery form for w in [0, 16), then the
  // accumulator, then the product scratch. A constant width keeps it on the stack.
  std::conditional_t<kLimbs != 0, std::array<uint64_t, 18 * kLimbs + 2>, Limbs> work{};
  if constexpr (kLimbs == 0) {
    work.resize(18 * s + 2);
  }
  uint64_t* table = work.data();
  uint64_t* acc = table + 16 * s;
  uint64_t* t = acc + s;
  std::copy(one_mont_.begin(), one_mont_.end(), table);
  Import(base.Mod(modulus_), acc);
  MulMontLimbs<kLimbs>(acc, r2_.data(), table + s, t);
  for (size_t w = 2; w < 16; ++w) {
    MulMontLimbs<kLimbs>(table + (w - 1) * s, table + s, table + w * s, t);
  }

  const Limbs& e = exp.limbs();
  size_t windows = (exp.BitLength() + 3) / 4;
  std::copy(one_mont_.begin(), one_mont_.end(), acc);
  for (size_t wi = windows; wi-- > 0;) {
    if (wi + 1 != windows) {
      for (int sq = 0; sq < 4; ++sq) {
        MulMontLimbs<kLimbs>(acc, acc, acc, t);
      }
    }
    // 64 % 4 == 0, so a window never straddles an exponent limb boundary.
    uint64_t w = (e[(wi * 4) / 64] >> ((wi * 4) % 64)) & 0xFu;
    if (w != 0) {
      MulMontLimbs<kLimbs>(acc, table + w * s, acc, t);
    }
  }
  // Leave Montgomery form: multiply by 1, reusing the table's first slot.
  std::fill(table, table + s, uint64_t{0});
  table[0] = 1;
  MulMontLimbs<kLimbs>(acc, table, acc, t);
  BigUint result = Export(acc);
  // The table holds powers of a possibly secret-derived base (and acc/scratch its
  // residue); scrub before the storage returns to the stack or the allocator.
  SecureWipe(work.data(), work.size() * sizeof(uint64_t));
  return result;
}

BigUint MontgomeryContext::PowMod(const BigUint& base, const BigUint& exp) const {
  return s_ == 4 ? PowModLimbs<4>(base, exp) : PowModLimbs<0>(base, exp);
}

}  // namespace deta::crypto
