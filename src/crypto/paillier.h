// Paillier additively homomorphic encryption (Paillier, EUROCRYPT'99), used by the
// Paillier-based Fusion aggregation algorithm (paper §7.1 / Figure 5c,f).
//
// Model updates are floats; the fusion layer quantizes them to fixed point and packs
// several into one plaintext of Z_n (PaillierPacker below), so the homomorphic sum of K
// party ciphertexts decrypts to the per-coordinate sums.
//
// A key exists in one form only. The public key is the modulus n: the generator is
// fixed at g = n + 1, so g^m mod n^2 = 1 + m*n. The private key is the primes p and q
// plus the CRT values derived from them. Decryption works mod p^2 and q^2 and
// recombines with Garner's formula, about 4x cheaper than the textbook lambda/mu
// decryption and bitwise identical to it; that textbook form survives only as the
// oracle in tests/crypto_montgomery_test.cc.
//
// Encryption has two paths with identical output. The public key computes
// c = (1 + m*n) * r^n mod n^2 directly; it is the path for whoever holds n alone. Every
// party also holds p and q (to decrypt), so PaillierPrivateKey::EncryptBatch computes
// the same c mod p^2 and mod q^2 and joins the two by Garner,
// c = c_p + p^2 * ((c_q - c_p) * (p^2)^-1 mod q^2): two exponentiations on half-width
// moduli instead of one on n^2. Both draw r from the same per-element stream and accept
// the same draws, so for equal rng states they return the same ciphertexts and leave
// the rng at the same position (PaillierCrtDifferentialTest).
//
// Hot path: every modular exponentiation runs through a cached Montgomery fixed-window
// context (crypto/montgomery.h), built once per key and shared by copies. The private
// key's batch forms split a batch into chunks of the lanes PowModBatch runs (8 bases per
// AVX-512 IFMA step at the default key size) and make one PowModBatch call per prime
// square per chunk; the single-element forms are chunks of one, so both return the same
// bits. Around the exponentiations, each element's CRT work (r's prime checks, the
// reductions, the Garner joins and L) runs on fixed-width limbs in the chunk's scratch,
// on Montgomery contexts over p^2, q^2, p and q, so an element allocates only its output.
#ifndef DETA_CRYPTO_PAILLIER_H_
#define DETA_CRYPTO_PAILLIER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/secret.h"
#include "crypto/bigint.h"
#include "crypto/chacha20.h"
#include "crypto/montgomery.h"

namespace deta::crypto {

class PaillierPublicKey {
 public:
  // Derives n^2 and its Montgomery context. |n| must be odd and > 1.
  explicit PaillierPublicKey(BigUint n);

  const BigUint& n() const { return n_; }

  // Encrypts m in [0, n) with fresh randomness from |rng|.
  BigUint Encrypt(const BigUint& m, SecureRng& rng) const;
  // Encrypts every element of |ms|, spreading the modular exponentiations over the
  // deterministic parallel layer (common/parallel.h). Per-element randomness is derived
  // by drawing one seed per element from |rng| in index order before fanning out, so the
  // ciphertext vector is identical for any thread count.
  std::vector<BigUint> EncryptBatch(const std::vector<BigUint>& ms, SecureRng& rng) const;
  // Homomorphic addition: Dec(AddCiphertexts(c1, c2)) = Dec(c1) + Dec(c2) mod n.
  BigUint AddCiphertexts(const BigUint& c1, const BigUint& c2) const;

 private:
  BigUint n_;
  // Shared across copies: the modulus is public and the context immutable, so
  // concurrent batch workers can all read through it.
  std::shared_ptr<const MontgomeryContext> mont_n2_;
};

class PaillierPrivateKey {
 public:
  // Builds the private key of |pub| from its prime factors and derives the CRT values.
  // nullopt unless p * q = n, p != q and p and q have the same bit length, as every
  // generated key's do: the CRT kernels size their operands and reductions by it.
  static std::optional<PaillierPrivateKey> FromPrimes(const PaillierPublicKey& pub,
                                                      Secret<BigUint> p,
                                                      Secret<BigUint> q);

  // The primes are the whole secret: everything else here derives from them.
  const Secret<BigUint>& p() const { return p_; }
  const Secret<BigUint>& q() const { return q_; }

  // Encrypt and EncryptBatch by CRT: the same ciphertexts and the same stream position
  // of |rng| as PaillierPublicKey's, at about half the cost.
  BigUint Encrypt(const BigUint& m, SecureRng& rng) const;
  std::vector<BigUint> EncryptBatch(const std::vector<BigUint>& ms, SecureRng& rng) const;

  // Throws CheckFailure on a ciphertext divisible by p or q (L is undefined there).
  BigUint Decrypt(const BigUint& c) const;
  // Decrypts every element of |cs| in parallel, as Decrypt does each (decryption is
  // deterministic, so no randomness bookkeeping is needed).
  std::vector<BigUint> DecryptBatch(const std::vector<BigUint>& cs) const;

 private:
  using Limbs = std::vector<uint64_t>;

  PaillierPrivateKey() = default;

  // The chunk kernels the single-element and batch forms share, so both compute each
  // element the same way. EncryptChunk draws element i's r from rng_at(i), in index
  // order; DecryptChunk throws on a ciphertext divisible by p or q. kLimbs is the width
  // of p^2 and q^2: 4 at the default key size (p and q then have 2), 0 for the run-time
  // width.
  template <size_t kLimbs, typename RngAt>
  void EncryptChunk(std::span<const BigUint> ms, const BigUint& n, const RngAt& rng_at,
                    std::span<BigUint> out) const;
  template <size_t kLimbs>
  void DecryptChunk(std::span<const BigUint> cs, std::span<BigUint> out) const;
  // Draws r below n with neither prime dividing it, testing each prime by a reduction on
  // limbs; |t| is scratch of 3 * limbs(p) + 2 limbs.
  template <size_t kLimbs>
  BigUint DrawR(const BigUint& n, SecureRng& rng, uint64_t* t) const;
  // Whether the chunk kernels run at the compile-time 4 limbs.
  bool FourLimbs() const { return mont_p2_->limbs() == 4; }
  // Elements per parallel chunk of the batch forms: the bases PowModBatch raises per
  // step over p^2 and q^2 (8 with AVX-512 IFMA at the default key size, else 1).
  size_t BatchGrain() const;

  // Whoever holds these can decrypt every party's update, the exact capability the
  // decentralization argument denies to aggregators. So every component is a Secret: it
  // cannot reach a log, a telemetry label, or a plaintext wire or persist path without an
  // audited Expose* call, and it wipes itself on destruction. The derived members exist
  // so neither decryption nor encryption recomputes an inverse per ciphertext. The limb
  // constants are little-endian and zero-padded to limbs(p^2) or limbs(p); those marked
  // Montgomery are in the Montgomery form of their modulus's context, so one CIOS
  // product applies each.
  Secret<BigUint> p_;
  Secret<BigUint> q_;
  Secret<BigUint> p_minus_1_;  // CRT exponent mod p^2
  Secret<BigUint> q_minus_1_;  // CRT exponent mod q^2
  Secret<Limbs> n_p2_;         // n * R^2 mod p^2: MulMont(m, .) = m*n, Montgomery form
  Secret<Limbs> n_q2_;         // n * R^2 mod q^2
  Secret<Limbs> p2_inv_q2_;    // (p^2)^-1 mod q^2, Montgomery (Garner, encryption)
  Secret<Limbs> hp_;           // L_p(g^(p-1) mod p^2)^-1 mod p, Montgomery
  Secret<Limbs> hq_;           // L_q(g^(q-1) mod q^2)^-1 mod q, Montgomery
  Secret<Limbs> p_inv_q_;      // p^-1 mod q, Montgomery (Garner, decryption)
  Secret<Limbs> p_inv_low_;    // p^-1 mod 2^(64*limbs(p)): L_p as an exact division
  Secret<Limbs> q_inv_low_;    // q^-1 mod 2^(64*limbs(q))
  // Contexts over p^2, q^2, p and q; a context wipes its modulus and tables when the
  // last key copy drops it.
  std::shared_ptr<const MontgomeryContext> mont_p2_;
  std::shared_ptr<const MontgomeryContext> mont_q2_;
  std::shared_ptr<const MontgomeryContext> mont_p_;
  std::shared_ptr<const MontgomeryContext> mont_q_;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

// Generates a key with |modulus_bits|-bit n. Jobs default to 256 (fl/job_api.h), as do
// perfbench and Figure 5; the construction is identical at 2048.
PaillierKeyPair GeneratePaillierKey(SecureRng& rng, size_t modulus_bits);

// Lane layout for packing k quantized model parameters into one Paillier plaintext
// ("Lossless Privacy-Preserving Aggregation for Decentralized FL" packing idea).
// Each lane holds offset + value with ceil(log2(max_addends)) headroom bits, so the
// homomorphic sum of up to |max_addends| packed vectors cannot carry across lanes:
// packing divides the (dominant) modular-exponentiation count by lanes() while the
// aggregate decrypts to exactly the per-coordinate sums.
class PaillierPacker {
 public:
  // |lane_bits| per packed value (the pack width knob; fewer bits = more lanes = fewer
  // exponentiations, at a smaller per-value range). Requires 8 <= lane_bits <= 62.
  PaillierPacker(const PaillierPublicKey& pub, int max_addends, int lane_bits = 56);

  int lanes() const { return lanes_; }
  int lane_bits() const { return lane_bits_; }
  // Per-value magnitude bound B: packed values must satisfy |v| < B so that the sum of
  // max_addends of them stays inside one lane.
  int64_t value_bound() const { return value_bound_; }
  // Number of plaintext blocks (= ciphertexts) for a vector of |n| values.
  size_t BlockCount(size_t n) const {
    return (n + static_cast<size_t>(lanes_) - 1) / static_cast<size_t>(lanes_);
  }

  // Packs quantized values into plaintext blocks (lane 0 in the least-significant
  // bits). Checks every value against value_bound().
  std::vector<BigUint> Pack(const std::vector<int64_t>& values) const;
  // Inverse of Pack over plaintexts that are the homomorphic sum of |num_addends|
  // packed vectors; returns the per-coordinate sums.
  std::vector<int64_t> UnpackSum(const std::vector<BigUint>& plains, size_t n,
                                 int num_addends) const;

 private:
  int lanes_;
  int lane_bits_;
  int64_t value_bound_;
  uint64_t lane_offset_;  // 2^(value_bits - 1), added per lane so values are nonnegative
};

// Packed batch hot path: Pack + EncryptBatch / DecryptBatch + UnpackSum fused behind
// one call each, so the fusion layers never touch lane layout directly. Encryption
// takes either key; the private key's CRT path gives the same ciphertexts faster.
std::vector<BigUint> PaillierEncryptPacked(const PaillierPublicKey& pub,
                                           const PaillierPacker& packer,
                                           const std::vector<int64_t>& values,
                                           SecureRng& rng);
std::vector<BigUint> PaillierEncryptPacked(const PaillierPrivateKey& priv,
                                           const PaillierPacker& packer,
                                           const std::vector<int64_t>& values,
                                           SecureRng& rng);
std::vector<int64_t> PaillierDecryptPackedSum(const PaillierPrivateKey& priv,
                                              const PaillierPacker& packer,
                                              const std::vector<BigUint>& cs, size_t n,
                                              int num_addends);

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_PAILLIER_H_
