// Versioned snapshot codec for Paillier key material (checkpoint/resume of roles that
// hold the fusion decryption capability).
//
// The format (version 2) carries lambda/mu plus the CRT primes p/q; the derived CRT
// fields (p^2, q^2, exponents, hp/hq, Garner inverse, Montgomery contexts) are
// recomputed on load rather than stored, so the on-disk secret surface stays minimal.
// A version-1 blob (lambda/mu without the primes) is rejected: decryption needs the CRT
// extension.
//
// The blob holds raw private key material: callers MUST seal it (persist::SealKey)
// before it enters a snapshot section, exactly like RNG state and transform material.
#ifndef DETA_PERSIST_PAILLIER_KEY_CODEC_H_
#define DETA_PERSIST_PAILLIER_KEY_CODEC_H_

#include <optional>

#include "common/bytes.h"
#include "crypto/paillier.h"

namespace deta::persist {

// Serializes a key pair whose private key carries the CRT extension (DETA_CHECK).
Bytes SerializePaillierKey(const crypto::PaillierKeyPair& kp);

// nullopt on malformed/truncated input, any version but 2, or CRT primes that do not
// multiply to n. The returned key has its Montgomery caches and CRT tables rebuilt and
// ready.
std::optional<crypto::PaillierKeyPair> ParsePaillierKey(const Bytes& blob);

}  // namespace deta::persist

#endif  // DETA_PERSIST_PAILLIER_KEY_CODEC_H_
