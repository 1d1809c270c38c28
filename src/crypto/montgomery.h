// Montgomery-form modular arithmetic context for odd moduli: REDC-based
// multiplication/squaring (CIOS, 64-bit limbs, unsigned __int128 intermediates) and
// fixed-window (4-bit) modular exponentiation. This is the hot path under Paillier encrypt/decrypt
// and Miller-Rabin witnesses: it replaces the schoolbook multiply + Knuth-D divide per
// modular product with a single fused multiply-reduce pass that never divides.
//
// One CIOS body serves every width. PowMod instantiates it once per call: at a constant
// 4 limbs for 4-limb moduli (p^2 and q^2 of the default 256-bit Paillier key, where the
// run-time loop's bookkeeping rivals its multiplies), and at the run-time width for every
// other size.
//
// The limb kernels (MulMontLimbs, AddModLimbs, SubModLimbs, ReduceLimbs) are public and
// defined below, so a caller that chains many products over one modulus (the Paillier
// private key's CRT joins) runs them at the width it picks, on fixed-width operands in
// its own scratch, with no BigUint allocated between steps.
//
// PowModBatch raises many bases to one exponent. Over a 4-limb modulus on a CPU with
// AVX-512 IFMA it runs 8 bases in the lanes of one integer kernel: 5 digits of 52 bits
// per lane, almost-Montgomery products with R = 2^260 (every value stays below 2m, as
// 4m < 2^260), the same 4-bit window schedule on the shared exponent, and one
// conditional subtraction per lane at the end. Elsewhere it runs PowMod's kernel per
// base.
//
// All arithmetic is exact, so every result is bitwise identical to square-and-multiply
// over BigUint::MulMod (the oracle in tests/crypto_montgomery_test.cc): the
// deterministic-aggregation guarantee does not depend on which path computed an
// exponentiation.
//
// A context precomputes everything derived from the modulus (R^2 mod m, R mod m,
// -m^-1 mod 2^64, with R = 2^(64*s) for an s-limb modulus, and the 8-lane kernel's
// 52-bit-digit constants) once; contexts are immutable after construction and safe to
// share across the deterministic parallel layer: every call works in its own scratch, so
// concurrent callers never share mutable state. Operands are BigUint's own 64-bit limbs,
// copied in zero-padded to s limbs and copied out as they are. Contexts built over secret
// moduli (the CRT primes and their squares in the Paillier private key) wipe their limb
// storage on destruction.
#ifndef DETA_CRYPTO_MONTGOMERY_H_
#define DETA_CRYPTO_MONTGOMERY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "crypto/bigint.h"

namespace deta::crypto {

// Bases per step of PowModBatch over 4-limb moduli in this process: 8 where the CPU
// reports AVX-512 IFMA, else 1. Picked once per process; telemetry (the
// crypto.montgomery.lanes gauge) and the micro benches' context report it, since the
// Paillier rows' timings differ by width.
int MontgomeryLanes();

// The most bases PowModBatch runs per step on any CPU (MontgomeryLanes() never exceeds
// it), so a caller can size per-step scratch at compile time.
inline constexpr size_t kMaxMontgomeryLanes = 8;

class MontgomeryContext {
 public:
  // |modulus| must be odd and > 1.
  explicit MontgomeryContext(const BigUint& modulus);
  // Wipes the precomputed tables; CRT contexts are derived from the private primes.
  ~MontgomeryContext();

  MontgomeryContext(const MontgomeryContext&) = delete;
  MontgomeryContext& operator=(const MontgomeryContext&) = delete;

  const BigUint& modulus() const { return modulus_; }
  // s, the modulus's limb count: every limb operand below is s limbs.
  size_t limbs() const { return s_; }

  // Conversions to/from Montgomery form (a*R mod m with R = 2^(64*s)).
  BigUint ToMont(const BigUint& a) const;
  BigUint FromMont(const BigUint& a) const;

  // Montgomery product a*b*R^-1 mod m for operands already in Montgomery form.
  BigUint MulMont(const BigUint& a, const BigUint& b) const;

  // Plain a*b mod m (operands in normal form, reduced mod m).
  BigUint MulMod(const BigUint& a, const BigUint& b) const;

  // base^exp mod m via fixed 4-bit windows: per window, four Montgomery squarings plus
  // at most one table multiply. One buffer per call holds the 16-entry window table, the
  // accumulator and the product scratch, so no product allocates (at 4 limbs it is a
  // stack array); it is wiped before returning (encryption and decryption exponentiate
  // tables of powers of r and of ciphertexts under secret moduli).
  BigUint PowMod(const BigUint& base, const BigUint& exp) const;

  // base^exp mod m for each of the |count| bases at |bases|, s limbs each and each below
  // 2m (both kernels take one: the first product, by R^2 mod m, stays below 2m), written
  // canonical, s limbs each, to |out| (which may be |bases|): bitwise what PowMod
  // returns for each. It runs 8 bases per step when the modulus has 4 limbs and the
  // process runs 8 lanes, and PowMod's kernel per base otherwise. Its window tables,
  // accumulators and digit buffers are wiped before it returns, as PowMod's are.
  void PowModBatch(const uint64_t* bases, size_t count, const BigUint& exp,
                   uint64_t* out) const;
  // Bases per step of PowModBatch for this modulus: MontgomeryLanes() at 4 limbs, else 1.
  // A caller that splits a batch over threads chunks it by this, so no step runs short
  // of bases except the last.
  size_t BatchLanes() const {
    return lanes52_.empty() ? 1 : static_cast<size_t>(MontgomeryLanes());
  }

  // --- Limb kernels ---
  // Operands are s little-endian limbs in the caller's memory; |t| is the caller's
  // scratch, and a caller whose values are secret wipes it with them. kLimbs == 0 reads
  // the width s at run time; kLimbs > 0 is a compile-time s, whose loops unroll. The
  // output of MulMontLimbs, AddModLimbs and SubModLimbs may alias an input: it is written
  // after the last read.
  //
  // CIOS fused multiply-reduce: out = a*b*R^-1 mod m, canonical, for any a below R and
  // b < m. Every row keeps the running value below 2m (it adds a_i*b < 2^64*m and
  // q_i*m < 2^64*m and divides by 2^64), so one conditional subtraction ends it.
  // |t| is s + 2 limbs; at a constant width it is unused, and the running value is a
  // local the compiler keeps in registers which, like the lane kernel's product
  // accumulators, is not wiped.
  template <size_t kLimbs>
  void MulMontLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out,
                    uint64_t* t) const;
  // out = a + b mod m and a - b mod m, for a, b < m.
  template <size_t kLimbs>
  void AddModLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out) const;
  template <size_t kLimbs>
  void SubModLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out) const;
  // out = x mod m for the |count| limbs at x, whatever their number: Horner's rule over
  // s-limb chunks from the top, acc = acc*R + chunk, where acc*R mod m is
  // MulMont(acc, R^2 mod m) and chunk mod m is MulMont(chunk, R mod m) (MulMont takes any
  // first operand below R). One product for up to s limbs, two and an addition per
  // further chunk. |t| is 2s + 2 limbs; |out| must not overlap x.
  template <size_t kLimbs>
  void ReduceLimbs(const uint64_t* x, size_t count, uint64_t* out, uint64_t* t) const;

 private:
  using Limbs = std::vector<uint64_t>;

  // out = top*R + x - m when that is not negative, else x: the canonical residue of a
  // value below 2m held in s limbs at x and a top word of 0 or 1. |out| may be x.
  template <size_t kLimbs>
  [[gnu::always_inline]] inline void SubtractOnce(const uint64_t* x, uint64_t top,
                                                  uint64_t* out) const;
  // Fixed-width import into s limbs at |out|: value must be < modulus.
  void Import(const BigUint& a, uint64_t* out) const;
  BigUint Export(const uint64_t* a) const { return BigUint::FromLimbs(Limbs(a, a + s_)); }
  // base^exp mod m for one base of s limbs below R at |base|, written canonical to |out|
  // (kLimbs as in MulMontLimbs).
  template <size_t kLimbs>
  void PowModLimbs(const uint64_t* base, const BigUint& exp, uint64_t* out) const;

  BigUint modulus_;   // its s limbs are the CIOS modulus operand
  size_t s_;          // 64-bit limb count
  uint64_t inv64_;    // -m^-1 mod 2^64
  Limbs r2_;          // R^2 mod m (Montgomery form of R)
  Limbs one_mont_;    // R mod m (Montgomery form of 1)
  // The 8-lane kernel's constants, each as 5 52-bit digits with R = 2^260: m, R^2 mod m
  // and R mod m, then -m^-1 mod 2^52. Empty unless the process runs 8 lanes and s_ == 4.
  Limbs lanes52_;
};

template <size_t kLimbs>
inline void MontgomeryContext::SubtractOnce(const uint64_t* x, uint64_t top,
                                            uint64_t* out) const {
  using u128 = unsigned __int128;
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  const uint64_t* m = modulus_.limbs().data();
  bool ge = top != 0;
  if (!ge) {
    ge = true;
    for (size_t i = s; i-- > 0;) {
      if (x[i] != m[i]) {
        ge = x[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    uint64_t borrow = 0;
    for (size_t i = 0; i < s; ++i) {
      const u128 diff = static_cast<u128>(x[i]) - m[i] - borrow;
      out[i] = static_cast<uint64_t>(diff);
      borrow = static_cast<uint64_t>(diff >> 127);
    }
  } else if (out != x) {
    std::copy(x, x + s, out);
  }
}

template <size_t kLimbs>
void MontgomeryContext::MulMontLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out,
                                     uint64_t* t) const {
  // CIOS (coarsely integrated operand scanning): interleaves the schoolbook product
  // with the REDC reduction so the intermediate never exceeds s+2 limbs. Every 128-bit
  // accumulation stays below 2^128: (2^64-1)^2 + 2*(2^64-1) = 2^128 - 1. At a constant
  // width every loop below unrolls completely.
  using u128 = unsigned __int128;
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  const uint64_t* m = modulus_.limbs().data();
  // At a constant width the running value is a local array the compiler keeps in
  // registers (the caller's |t| could alias a, b or out, which would pin it to memory).
  uint64_t local[kLimbs + 2];
  if constexpr (kLimbs != 0) {
    t = local;
  }
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
  // The CIOS invariant leaves t < 2m.
  SubtractOnce<kLimbs>(t, t[s], out);
}

template <size_t kLimbs>
void MontgomeryContext::AddModLimbs(const uint64_t* a, const uint64_t* b,
                                    uint64_t* out) const {
  // a + b < 2m, in s limbs and a carry.
  using u128 = unsigned __int128;
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  uint64_t carry = 0;
  for (size_t i = 0; i < s; ++i) {
    const u128 sum = static_cast<u128>(a[i]) + b[i] + carry;
    out[i] = static_cast<uint64_t>(sum);
    carry = static_cast<uint64_t>(sum >> 64);
  }
  SubtractOnce<kLimbs>(out, carry, out);
}

template <size_t kLimbs>
void MontgomeryContext::SubModLimbs(const uint64_t* a, const uint64_t* b,
                                    uint64_t* out) const {
  // a - b, plus m when it borrowed: a - b + m lies in [0, m) then.
  using u128 = unsigned __int128;
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  const uint64_t* m = modulus_.limbs().data();
  uint64_t borrow = 0;
  for (size_t i = 0; i < s; ++i) {
    const u128 diff = static_cast<u128>(a[i]) - b[i] - borrow;
    out[i] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 127);
  }
  if (borrow != 0) {
    uint64_t carry = 0;
    for (size_t i = 0; i < s; ++i) {
      const u128 sum = static_cast<u128>(out[i]) + m[i] + carry;
      out[i] = static_cast<uint64_t>(sum);
      carry = static_cast<uint64_t>(sum >> 64);
    }
  }
}

template <size_t kLimbs>
void MontgomeryContext::ReduceLimbs(const uint64_t* x, size_t count, uint64_t* out,
                                    uint64_t* t) const {
  const size_t s = kLimbs != 0 ? kLimbs : s_;
  uint64_t* chunk = t + s + 2;  // the zero-padded top chunk, then each chunk's residue
  const size_t top = count == 0 ? 0 : (count - 1) / s;
  std::fill(std::copy(x + top * s, x + count, chunk), chunk + s, uint64_t{0});
  if (top == 0) {
    MulMontLimbs<kLimbs>(chunk, one_mont_.data(), out, t);
    return;
  }
  MulMontLimbs<kLimbs>(chunk, r2_.data(), out, t);
  for (size_t j = top; j-- > 0;) {
    MulMontLimbs<kLimbs>(x + j * s, one_mont_.data(), chunk, t);
    AddModLimbs<kLimbs>(out, chunk, out);
    if (j > 0) {
      MulMontLimbs<kLimbs>(out, r2_.data(), out, t);
    }
  }
}

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_MONTGOMERY_H_
