#include "fl/paillier_fusion.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "net/codec.h"

namespace deta::fl {

using crypto::BigUint;

PaillierVectorCodec::PaillierVectorCodec(const crypto::PaillierPublicKey& pub,
                                         int max_parties, int lane_bits, int scale_bits)
    : pub_(pub),
      packer_(pub, max_parties, lane_bits),
      scale_(std::ldexp(1.0, scale_bits)) {
  // The quantized magnitude bound must leave at least 8 bits of integer range above
  // the fractional scale (same contract as the pre-packer layout: value_bits >
  // scale_bits + 8).
  DETA_CHECK_MSG(packer_.value_bound() >= (int64_t{1} << (scale_bits + 8)),
                 "lane too narrow for " << max_parties << " parties at scale 2^"
                                        << scale_bits);
}

std::vector<int64_t> PaillierVectorCodec::Quantize(const std::vector<float>& values) const {
  std::vector<int64_t> quantized(values.size());
  parallel::ParallelFor(0, static_cast<int64_t>(values.size()), 256,
                        [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      quantized[static_cast<size_t>(i)] =
          std::llround(static_cast<double>(values[static_cast<size_t>(i)]) * scale_);
    }
  });
  return quantized;
}

std::vector<BigUint> PaillierVectorCodec::Encrypt(const std::vector<float>& values,
                                                  crypto::SecureRng& rng) const {
  // Quantize to fixed point, then hand off to the crypto-layer packed hot path
  // (lane-pack + deterministic batch encrypt).
  return crypto::PaillierEncryptPacked(pub_, packer_, Quantize(values), rng);
}

std::vector<BigUint> PaillierVectorCodec::Encrypt(const std::vector<float>& values,
                                                  const crypto::PaillierPrivateKey& priv,
                                                  crypto::SecureRng& rng) const {
  return crypto::PaillierEncryptPacked(priv, packer_, Quantize(values), rng);
}

void PaillierVectorCodec::AccumulateInPlace(std::vector<BigUint>& acc,
                                            const std::vector<BigUint>& other) const {
  DETA_CHECK_EQ(acc.size(), other.size());
  DETA_COUNTER("crypto.paillier.add_ops").Add(acc.size());
  parallel::ParallelFor(0, static_cast<int64_t>(acc.size()), 8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      size_t k = static_cast<size_t>(i);
      acc[k] = pub_.AddCiphertexts(acc[k], other[k]);
    }
  });
}

std::vector<float> PaillierVectorCodec::DecryptSum(const std::vector<BigUint>& ciphertexts,
                                                   const crypto::PaillierPrivateKey& priv,
                                                   size_t n, int num_addends) const {
  std::vector<int64_t> sums =
      crypto::PaillierDecryptPackedSum(priv, packer_, ciphertexts, n, num_addends);
  std::vector<float> out(n);
  parallel::ParallelFor(0, static_cast<int64_t>(n), 256, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      out[static_cast<size_t>(i)] = static_cast<float>(
          static_cast<double>(sums[static_cast<size_t>(i)]) / scale_);
    }
  });
  return out;
}

Bytes SerializeCiphertexts(const std::vector<BigUint>& c) {
  net::Writer w;
  w.WriteU64(c.size());
  for (const BigUint& x : c) {
    w.WriteBytes(x.ToBytes());
  }
  return w.Take();
}

std::vector<BigUint> DeserializeCiphertexts(std::span<const uint8_t> data) {
  net::Reader r(data);
  uint64_t n = r.ReadU64();
  // Each ciphertext takes at least its 8-byte length, so refuse a larger count.
  DETA_CHECK_LE(n, r.remaining() / 8);
  std::vector<BigUint> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    out.push_back(BigUint::FromBytes(r.ReadBytes()));
  }
  return out;
}

}  // namespace deta::fl
