// Paillier-based fusion (paper §7.1, Figures 5c/5f): parties encrypt their updates under
// a shared Paillier public key, the aggregator sums ciphertexts homomorphically without
// ever seeing plaintext, and parties decrypt the fused result. The key pair comes from
// the trusted key broker (as in Liu et al.) inside the sealed transform material, to
// every party of every job; a party snapshot holds it once, in that material.
//
// PaillierVectorCodec is the one float codec over Paillier. Coordinates are lane-packed
// through crypto::PaillierPacker ("Lossless Privacy-Preserving Aggregation for
// Decentralized FL", arXiv:2501.04409): several fixed-point values share one Paillier
// plaintext, with enough headroom per lane that the homomorphic sum of up to
// |max_parties| updates cannot carry across lanes. Packing divides the (dominant)
// modular-exponentiation count, which is the honest version of why the paper's Figure
// 5f shows DeTA *speeding Paillier up*: the work is embarrassingly parallel across
// coordinates, so partitioning it across aggregators divides the wall-clock. This layer
// only adds the float <-> fixed-point quantization; lane layout, headroom accounting,
// and the packed encrypt/decrypt hot path live in crypto/.
#ifndef DETA_FL_PAILLIER_FUSION_H_
#define DETA_FL_PAILLIER_FUSION_H_

#include <vector>

#include "crypto/paillier.h"
#include "fl/update.h"

namespace deta::fl {

class PaillierVectorCodec {
 public:
  // |lane_bits| per packed value; |scale_bits| fractional bits. Values must satisfy
  // |v| * 2^scale_bits * max_parties < 2^(lane_bits-1).
  PaillierVectorCodec(const crypto::PaillierPublicKey& pub, int max_parties,
                      int lane_bits = 56, int scale_bits = 20);

  int LanesPerCiphertext() const { return packer_.lanes(); }
  // Number of ciphertexts for a vector of |n| floats.
  size_t CiphertextCount(size_t n) const { return packer_.BlockCount(n); }

  // Encrypts a float vector under the codec's public key.
  std::vector<crypto::BigUint> Encrypt(const std::vector<float>& values,
                                       crypto::SecureRng& rng) const;
  // The same ciphertexts by CRT, for a holder of the matching private key (a party).
  std::vector<crypto::BigUint> Encrypt(const std::vector<float>& values,
                                       const crypto::PaillierPrivateKey& priv,
                                       crypto::SecureRng& rng) const;
  // Homomorphically accumulates |other| into |acc| (coordinate-wise ciphertext product).
  void AccumulateInPlace(std::vector<crypto::BigUint>& acc,
                         const std::vector<crypto::BigUint>& other) const;
  // Decrypts the sum of |num_addends| encrypted vectors back to floats.
  std::vector<float> DecryptSum(const std::vector<crypto::BigUint>& ciphertexts,
                                const crypto::PaillierPrivateKey& priv, size_t n,
                                int num_addends) const;

 private:
  // Fixed point: round(v * 2^scale_bits).
  std::vector<int64_t> Quantize(const std::vector<float>& values) const;

  const crypto::PaillierPublicKey& pub_;
  crypto::PaillierPacker packer_;
  double scale_;
};

// Serialization of ciphertext vectors for the wire.
Bytes SerializeCiphertexts(const std::vector<crypto::BigUint>& c);
std::vector<crypto::BigUint> DeserializeCiphertexts(std::span<const uint8_t> data);

}  // namespace deta::fl

#endif  // DETA_FL_PAILLIER_FUSION_H_
