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
// PowModBatch raises many bases to one exponent. Over a 4-limb modulus on a CPU with
// AVX-512 IFMA it runs 8 bases in the lanes of one integer kernel: 5 digits of 52 bits
// per lane, almost-Montgomery products with R = 2^260 (every value stays below 2m, as
// 4m < 2^260), the same 4-bit window schedule on the shared exponent, and one
// conditional subtraction per lane at the end. Elsewhere it loops PowMod.
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
// moduli (the CRT primes' squares in the extended Paillier private key) wipe their limb
// storage on destruction.
#ifndef DETA_CRYPTO_MONTGOMERY_H_
#define DETA_CRYPTO_MONTGOMERY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/bigint.h"

namespace deta::crypto {

// Bases per step of PowModBatch over 4-limb moduli in this process: 8 where the CPU
// reports AVX-512 IFMA, else 1. Picked once per process; telemetry (the
// crypto.montgomery.lanes gauge) and the micro benches' context report it, since the
// Paillier rows' timings differ by width.
int MontgomeryLanes();

class MontgomeryContext {
 public:
  // |modulus| must be odd and > 1.
  explicit MontgomeryContext(const BigUint& modulus);
  // Wipes the precomputed tables; CRT contexts are derived from the private primes.
  ~MontgomeryContext();

  MontgomeryContext(const MontgomeryContext&) = delete;
  MontgomeryContext& operator=(const MontgomeryContext&) = delete;

  const BigUint& modulus() const { return modulus_; }

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

  // base^exp mod m for every base, bitwise what PowMod returns for each (bases >= m are
  // reduced first). It runs 8 bases per step when the modulus has 4 limbs and the
  // process runs 8 lanes, and loops PowMod otherwise. Its window table, accumulators and
  // digit buffers are wiped before it returns, as PowMod's are.
  std::vector<BigUint> PowModBatch(std::span<const BigUint> bases,
                                   const BigUint& exp) const;
  // Bases per step of PowModBatch for this modulus: MontgomeryLanes() at 4 limbs, else 1.
  // A caller that splits a batch over threads chunks it by this, so no step runs short
  // of bases except the last.
  size_t BatchLanes() const {
    return lanes52_.empty() ? 1 : static_cast<size_t>(MontgomeryLanes());
  }

 private:
  using Limbs = std::vector<uint64_t>;

  // Fixed-width import into s limbs at |out|: value must be < modulus.
  void Import(const BigUint& a, uint64_t* out) const;
  BigUint Export(const uint64_t* a) const { return BigUint::FromLimbs(Limbs(a, a + s_)); }
  // CIOS fused multiply-reduce: out = a*b*R^-1 mod m over s-limb operands. |t| is s + 2
  // limbs of scratch; |out| may alias a or b (it is written after the last read).
  // kLimbs == 0 reads the width s_ at run time; kLimbs > 0 is a compile-time s_.
  template <size_t kLimbs>
  void MulMontLimbs(const uint64_t* a, const uint64_t* b, uint64_t* out,
                    uint64_t* t) const;
  // PowMod at one width (kLimbs as in MulMontLimbs).
  template <size_t kLimbs>
  BigUint PowModLimbs(const BigUint& base, const BigUint& exp) const;

  BigUint modulus_;   // its s limbs are the CIOS modulus operand
  size_t s_;          // 64-bit limb count
  uint64_t inv64_;    // -m^-1 mod 2^64
  Limbs r2_;          // R^2 mod m (Montgomery form of R)
  Limbs one_mont_;    // R mod m (Montgomery form of 1)
  // The 8-lane kernel's constants, each as 5 52-bit digits with R = 2^260: m, R^2 mod m
  // and R mod m, then -m^-1 mod 2^52. Empty unless the process runs 8 lanes and s_ == 4.
  Limbs lanes52_;
};

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_MONTGOMERY_H_
