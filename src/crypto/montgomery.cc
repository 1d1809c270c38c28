#include "crypto/montgomery.h"

#include <algorithm>
#include <array>
#include <type_traits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/telemetry.h"
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

// The 8-lane kernel's shape: 8 bases of a 4-limb modulus, each as 5 digits of 52 bits.
constexpr size_t kLanes = kMaxMontgomeryLanes;
constexpr size_t kDigits = 5;
constexpr int kDigitBits = 52;
constexpr uint64_t kDigitMask = (uint64_t{1} << kDigitBits) - 1;

// Re-slices the little-endian value held in |in_count| digits of |in_bits| bits into
// |out_count| digits of |out_bits| bits (both widths at most 64); missing high input
// digits read as zero, and bits beyond the output's width are dropped.
void Repack(const uint64_t* in, size_t in_count, int in_bits, uint64_t* out,
            size_t out_count, int out_bits) {
  const uint64_t mask = out_bits == 64 ? ~uint64_t{0} : (uint64_t{1} << out_bits) - 1;
  u128 window = 0;
  int have = 0;
  size_t next = 0;
  for (size_t o = 0; o < out_count; ++o) {
    while (have < out_bits && next < in_count) {
      window |= static_cast<u128>(in[next++]) << have;
      have += in_bits;
    }
    out[o] = static_cast<uint64_t>(window) & mask;
    window >>= out_bits;
    have = std::max(have - out_bits, 0);
  }
}

#if defined(__x86_64__)
// The 8-lane kernel. Only these integer functions are compiled for AVX-512 IFMA; the
// multiplies are the two vpmadd52 intrinsics, loads and stores are intrinsics too, and
// shifts, adds and masks are GCC vector operators (GCC 12's _mm512_srli_epi64 trips a
// false -Wuninitialized). U64x8 holds one 52-bit digit of each of the 8 lanes.
using U64x8 = uint64_t __attribute__((vector_size(64)));
using Digits = U64x8[kDigits];

// acc += the low (kHigh: the high) 52 bits of the 104-bit product x * y, lane by lane;
// vpmadd52 reads only the low 52 bits of x and y.
template <bool kHigh>
[[gnu::target("avx512f,avx512ifma"), gnu::always_inline]] inline void Madd52(
    U64x8& acc, const U64x8& x, const U64x8& y) {
  const __m512i a = (__m512i)acc;
  acc = (U64x8)(kHigh ? _mm512_madd52hi_epu64(a, (__m512i)x, (__m512i)y)
                      : _mm512_madd52lo_epu64(a, (__m512i)x, (__m512i)y));
}

// Almost-Montgomery product per lane (Gueron-Krasnov): out = (a*b + q*m) / 2^260 for the
// q < 2^260 that makes the division exact, so out = a*b/R mod m plus at most one m. For
// a, b < 2m the quotient is below 4m^2/R + m < 2m, since 4m < 2^260 = R; so every
// product of the schedule stays below 2m. Digits in and out are below 2^52; between
// them each digit adds at most 4 products of 52 bits per row, 20 in all, well inside
// 64 bits. |consts| is a context's lanes52_, whose m and -m^-1 mod 2^52 are broadcast to
// every lane where they are used, so the kernel keeps no copy of them to wipe. |out| may
// alias a or b: it is written after the last read.
//
// Row i adds a_i * b and q_i * m, whose low digit is then 0, and drops that digit. The
// next row's q waits on the new low digit, so everything else keeps off that chain:
// the high halves of a_i * b go one digit up as soon as the row starts, and those of
// q_i * m into their own accumulators, which join the low digit with one add.
[[gnu::target("avx512f,avx512ifma"), gnu::always_inline]] inline void AlmostMontMul(
    const Digits& a, const Digits& b, const uint64_t* consts, Digits& out) {
  U64x8 acc[kDigits + 1] = {};
  U64x8 high_qm[kDigits + 1] = {};
  for (size_t i = 0; i < kDigits; ++i) {
    for (size_t j = 0; j < kDigits; ++j) {
      Madd52<false>(acc[j], a[i], b[j]);
    }
    U64x8 q = {};
    Madd52<false>(q, acc[0], U64x8{} + consts[3 * kDigits]);  // q = acc * -m^-1 mod 2^52
    for (size_t j = 0; j < kDigits; ++j) {
      Madd52<true>(acc[j + 1], a[i], b[j]);
    }
    for (size_t j = 0; j < kDigits; ++j) {
      Madd52<false>(acc[j], q, U64x8{} + consts[j]);
    }
    for (size_t j = 0; j < kDigits; ++j) {
      Madd52<true>(high_qm[j + 1], q, U64x8{} + consts[j]);
    }
    // The low 52 bits of acc[0] are now zero: shift down one digit, keeping its carry.
    acc[1] += high_qm[1] + (acc[0] >> kDigitBits);
    high_qm[1] = U64x8{};
    for (size_t j = 0; j < kDigits; ++j) {
      acc[j] = acc[j + 1];
      high_qm[j] = high_qm[j + 1];
    }
    acc[kDigits] = U64x8{};
    high_qm[kDigits] = U64x8{};
  }
  for (size_t j = 0; j < kDigits; ++j) {
    acc[j] += high_qm[j];
  }
  for (size_t j = 0; j + 1 < kDigits; ++j) {
    acc[j + 1] += acc[j] >> kDigitBits;
    acc[j] &= kDigitMask;
  }
  for (size_t j = 0; j < kDigits; ++j) {
    out[j] = acc[j];
  }
}

// base^exp mod m in each of 8 lanes. |digits| holds the bases, each below m, as 8 * j +
// lane for digit j, and receives the canonical results the same way. |consts| is a
// context's lanes52_ (m, R^2 mod m, R mod m, -m^-1 mod 2^52); |exp| has |windows| 4-bit
// windows.
[[gnu::target("avx512f,avx512ifma")]] void PowMod52x8(const uint64_t* consts,
                                                      const uint64_t* exp, size_t windows,
                                                      uint64_t* digits) {
  // table[w] = base^w in Montgomery form, as PowModLimbs builds it: table[0] is R mod m,
  // and table[1] the product of the base and R^2 mod m, which it holds first.
  Digits table[16] = {};
  Digits acc = {};
  for (size_t j = 0; j < kDigits; ++j) {
    acc[j] = (U64x8)_mm512_loadu_si512(digits + kLanes * j);
    table[0][j] = U64x8{} + consts[2 * kDigits + j];
    table[1][j] = U64x8{} + consts[kDigits + j];
  }
  AlmostMontMul(acc, table[1], consts, table[1]);
  for (size_t w = 2; w < 16; ++w) {
    AlmostMontMul(table[w - 1], table[1], consts, table[w]);
  }
  for (size_t j = 0; j < kDigits; ++j) {
    acc[j] = table[0][j];
  }
  for (size_t wi = windows; wi-- > 0;) {
    if (wi + 1 != windows) {
      for (int sq = 0; sq < 4; ++sq) {
        AlmostMontMul(acc, acc, consts, acc);
      }
    }
    const uint64_t w = (exp[(wi * 4) / 64] >> ((wi * 4) % 64)) & 0xFu;
    if (w != 0) {
      AlmostMontMul(acc, table[w], consts, acc);
    }
  }
  // Leave Montgomery form: (acc * 1 + q*m) / R is below 2m/R + m, so at most m, and is m
  // only when the residue is 0; one conditional subtraction makes every lane canonical.
  Digits unit = {};
  unit[0] = U64x8{} + 1;
  AlmostMontMul(acc, unit, consts, acc);
  Digits diff = {};
  U64x8 borrow = {};
  for (size_t j = 0; j < kDigits; ++j) {
    diff[j] = acc[j] - consts[j] - borrow;
    borrow = diff[j] >> 63;
    diff[j] &= kDigitMask;
  }
  const U64x8 below = U64x8{} - borrow;  // all ones in the lanes where acc < m
  for (size_t j = 0; j < kDigits; ++j) {
    const U64x8 canonical = (acc[j] & below) | (diff[j] & ~below);
    _mm512_storeu_si512(digits + kLanes * j, (__m512i)canonical);
  }
  // The table holds powers of the bases (r under encryption), acc and diff their
  // residues.
  SecureWipe(table, sizeof(table));
  SecureWipe(acc, sizeof(acc));
  SecureWipe(diff, sizeof(diff));
}
#endif

}  // namespace

int MontgomeryLanes() {
  static const int lanes = [] {
    int picked = 1;
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma")) {
      picked = static_cast<int>(kLanes);
    }
#endif
    telemetry::MetricsRegistry::Global().GetGauge("crypto.montgomery.lanes").Set(picked);
    return picked;
  }();
  return lanes;
}

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
  if (s_ == 4 && MontgomeryLanes() == static_cast<int>(kLanes)) {
    // The same three values for R = 2^260, then -m^-1 mod 2^52 (inv64_'s low bits).
    lanes52_.resize(3 * kDigits + 1);
    auto to_digits = [this](const BigUint& value, size_t slot) {
      Repack(value.limbs().data(), value.limbs().size(), 64,
             lanes52_.data() + slot * kDigits, kDigits, kDigitBits);
    };
    to_digits(modulus, 0);
    to_digits(BigUint(1).ShiftLeft(2 * kDigits * kDigitBits).Mod(modulus), 1);
    to_digits(BigUint(1).ShiftLeft(kDigits * kDigitBits).Mod(modulus), 2);
    lanes52_[3 * kDigits] = inv64_ & kDigitMask;
  }
}

MontgomeryContext::~MontgomeryContext() {
  WipeLimbs(r2_);
  WipeLimbs(one_mont_);
  WipeLimbs(lanes52_);
  modulus_.Wipe();
}

void MontgomeryContext::Import(const BigUint& a, uint64_t* out) const {
  DETA_CHECK_MSG(a < modulus_, "Montgomery operand not reduced mod m");
  const Limbs& limbs = a.limbs();
  std::fill(std::copy(limbs.begin(), limbs.end(), out), out + s_, uint64_t{0});
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
void MontgomeryContext::PowModLimbs(const uint64_t* base, const BigUint& exp,
                                    uint64_t* out) const {
  const size_t s = kLimbs != 0 ? kLimbs : s_;
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
  MulMontLimbs<kLimbs>(base, r2_.data(), table + s, t);
  for (size_t w = 2; w < 16; ++w) {
    MulMontLimbs<kLimbs>(table + (w - 1) * s, table + s, table + w * s, t);
  }

  // A zero exponent has no window, so acc stays R mod m and leaves as 1 mod m.
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
  MulMontLimbs<kLimbs>(acc, table, out, t);
  // The table holds powers of a possibly secret-derived base (and acc/scratch its
  // residue); scrub before the storage returns to the stack or the allocator.
  SecureWipe(work.data(), work.size() * sizeof(uint64_t));
}

BigUint MontgomeryContext::PowMod(const BigUint& base, const BigUint& exp) const {
  // The reduced base, then the reduction's scratch; the result overwrites the base.
  Limbs work(3 * s_ + 2);
  const Limbs& b = base.limbs();
  ReduceLimbs<0>(b.data(), b.size(), work.data(), work.data() + s_);
  if (s_ == 4) {
    PowModLimbs<4>(work.data(), exp, work.data());
  } else {
    PowModLimbs<0>(work.data(), exp, work.data());
  }
  BigUint result = Export(work.data());
  WipeLimbs(work);
  return result;
}

void MontgomeryContext::PowModBatch(const uint64_t* bases, size_t count,
                                    const BigUint& exp, uint64_t* out) const {
  if (lanes52_.empty()) {
    for (size_t i = 0; i < count; ++i) {
      if (s_ == 4) {
        PowModLimbs<4>(bases + 4 * i, exp, out + 4 * i);
      } else {
        PowModLimbs<0>(bases + s_ * i, exp, out + s_ * i);
      }
    }
    return;
  }
#if defined(__x86_64__)
  const size_t windows = (exp.BitLength() + 3) / 4;
  // One step's 8 bases, digit j of lane l at kLanes * j + l (a short last step leaves its
  // spare lanes 0), then one lane's digits on their way in or out.
  std::array<uint64_t, kDigits * kLanes> digits{};
  std::array<uint64_t, kDigits> lane{};
  for (size_t lo = 0; lo < count; lo += kLanes) {
    const size_t step = std::min(kLanes, count - lo);
    digits.fill(0);
    for (size_t l = 0; l < step; ++l) {
      Repack(bases + 4 * (lo + l), 4, 64, lane.data(), kDigits, kDigitBits);
      for (size_t j = 0; j < kDigits; ++j) {
        digits[kLanes * j + l] = lane[j];
      }
    }
    PowMod52x8(lanes52_.data(), exp.limbs().data(), windows, digits.data());
    for (size_t l = 0; l < step; ++l) {
      for (size_t j = 0; j < kDigits; ++j) {
        lane[j] = digits[kLanes * j + l];
      }
      Repack(lane.data(), kDigits, kDigitBits, out + 4 * (lo + l), 4, 64);
    }
  }
  SecureWipe(digits.data(), sizeof(digits));
  SecureWipe(lane.data(), sizeof(lane));
#endif
}

}  // namespace deta::crypto
