// Paillier additively homomorphic encryption (Paillier, EUROCRYPT'99), used by the
// Paillier-based Fusion aggregation algorithm (paper §7.1 / Figure 5c,f).
//
// Model updates are floats; they are encoded into the plaintext ring Z_n with fixed-point
// scaling plus an offset so negative values round-trip. Homomorphic addition of K party
// ciphertexts yields sum + K*offset, which the decoder removes.
//
// Hot path: all modular exponentiations run through a cached Montgomery fixed-window
// context (crypto/montgomery.h). Decryption uses the private key's CRT extension
// (decrypt mod p^2 and q^2 against half-size moduli, recombine via Garner), ~4x cheaper
// than the textbook lambda/mu decryption and bitwise identical to it.
#ifndef DETA_CRYPTO_PAILLIER_H_
#define DETA_CRYPTO_PAILLIER_H_

#include <memory>
#include <vector>

#include "common/secret.h"
#include "crypto/bigint.h"
#include "crypto/chacha20.h"
#include "crypto/montgomery.h"

namespace deta::crypto {

struct PaillierPublicKey {
  BigUint n;         // modulus p*q
  BigUint n_squared;  // n^2 (cached)
  BigUint g;         // generator, n + 1

  // Builds the shared Montgomery context for n^2. Called by GeneratePaillierKey and
  // key deserialization; harmless to call again. Encrypt/AddCiphertexts work (slower)
  // without it, so hand-assembled keys in tests stay valid.
  void PrecomputeCache();
  const MontgomeryContext* mont_n2() const { return mont_n2_.get(); }

  // Encrypts m in [0, n) with fresh randomness from |rng|.
  BigUint Encrypt(const BigUint& m, SecureRng& rng) const;
  // Encrypts every element of |ms|, spreading the modular exponentiations over the
  // deterministic parallel layer (common/parallel.h). Per-element randomness is derived
  // by drawing one seed per element from |rng| in index order before fanning out, so the
  // ciphertext vector is identical for any thread count.
  std::vector<BigUint> EncryptBatch(const std::vector<BigUint>& ms, SecureRng& rng) const;
  // Homomorphic addition: Dec(AddCiphertexts(c1, c2)) = Dec(c1) + Dec(c2) mod n.
  BigUint AddCiphertexts(const BigUint& c1, const BigUint& c2) const;
  // Homomorphic scalar multiply: Dec(MulPlain(c, k)) = k * Dec(c) mod n.
  BigUint MulPlain(const BigUint& c, const BigUint& k) const;

 private:
  // Shared across copies: the modulus is public, and the context is immutable after
  // PrecomputeCache, so concurrent batch workers can all read through it.
  std::shared_ptr<const MontgomeryContext> mont_n2_;
};

struct PaillierPrivateKey {
  // Whoever holds lambda/mu (or the CRT primes, which are strictly stronger) can
  // decrypt every party's update — the exact capability the decentralization argument
  // denies to aggregators — so every component is a Secret<BigUint>: it cannot reach a
  // log, a telemetry label, or a plaintext wire/persist path without an audited
  // Expose* call, and it wipes itself on destruction.

  Secret<BigUint> lambda;  // lcm(p-1, q-1)
  Secret<BigUint> mu;      // (L(g^lambda mod n^2))^-1 mod n

  // CRT extension, required by Decrypt (empty p/q = absent). GeneratePaillierKey and
  // the key codec always build it. The primes and everything derived from them are
  // secret; the derived members exist so decrypt never recomputes an inverse or square
  // per ciphertext.
  Secret<BigUint> p;          // prime factor of n
  Secret<BigUint> q;          // prime factor of n
  Secret<BigUint> p_squared;
  Secret<BigUint> q_squared;
  Secret<BigUint> p_minus_1;  // CRT exponent mod p^2
  Secret<BigUint> q_minus_1;  // CRT exponent mod q^2
  Secret<BigUint> hp;         // L_p(g^(p-1) mod p^2)^-1 mod p
  Secret<BigUint> hq;         // L_q(g^(q-1) mod q^2)^-1 mod q
  Secret<BigUint> p_inv_q;    // p^-1 mod q (Garner recombination)

  bool HasCrt() const { return !p.ExposeForCrypto().IsZero(); }
  // Derives p_squared..p_inv_q and the per-prime Montgomery contexts from p/q (which
  // must multiply to pub.n). Returns false on degenerate inputs (non-invertible hp/hq).
  bool PrecomputeCrt(const PaillierPublicKey& pub);

  // CRT decryption; a key without the CRT extension fails a DETA_CHECK.
  BigUint Decrypt(const BigUint& c, const PaillierPublicKey& pub) const;
  // Decrypts every element of |cs| in parallel (decryption is deterministic, so no
  // randomness bookkeeping is needed).
  std::vector<BigUint> DecryptBatch(const std::vector<BigUint>& cs,
                                    const PaillierPublicKey& pub) const;

 private:
  // MontgomeryContext wipes its limb storage when the last key copy drops it.
  std::shared_ptr<const MontgomeryContext> mont_p2_;
  std::shared_ptr<const MontgomeryContext> mont_q2_;
};

struct PaillierKeyPair {
  PaillierPublicKey pub;
  PaillierPrivateKey priv;
};

// Generates a key with |modulus_bits|-bit n. Benches default to 512 for speed; the
// construction is identical at 2048. The private key carries the CRT extension.
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
  BigUint lane_offset_;  // 2^(value_bits - 1), added per lane so values are nonnegative
};

// Packed batch hot path: Pack + EncryptBatch / DecryptBatch + UnpackSum fused behind
// one call each, so the fusion layers never touch lane layout directly.
std::vector<BigUint> PaillierEncryptPacked(const PaillierPublicKey& pub,
                                           const PaillierPacker& packer,
                                           const std::vector<int64_t>& values,
                                           SecureRng& rng);
std::vector<int64_t> PaillierDecryptPackedSum(const PaillierPrivateKey& priv,
                                              const PaillierPublicKey& pub,
                                              const PaillierPacker& packer,
                                              const std::vector<BigUint>& cs, size_t n,
                                              int num_addends);

// Fixed-point float codec for homomorphic aggregation.
class PaillierFloatCodec {
 public:
  // |scale_bits| fractional bits; |offset_bits| sets the representable magnitude bound
  // (values must satisfy |v| < 2^(offset_bits - scale_bits - 1) after aggregation).
  PaillierFloatCodec(const PaillierPublicKey& pub, int scale_bits = 24, int offset_bits = 48);

  BigUint Encode(float v) const;
  // Decodes a plaintext that is the homomorphic sum of |num_addends| encoded values.
  float DecodeSum(const BigUint& plain, int num_addends) const;

 private:
  const PaillierPublicKey& pub_;
  double scale_;
  BigUint offset_;
};

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_PAILLIER_H_
