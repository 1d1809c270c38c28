// Versioned snapshot codec for Paillier key material (checkpoint/resume of roles that
// hold the fusion decryption capability, and the key the broker serves to parties).
//
// The format (version 3) is (n, p, q): exactly what the key is. The CRT values and the
// Montgomery contexts are recomputed on load rather than stored, so the secret surface
// stays minimal. Versions 1 and 2 (which also carried lambda/mu) are rejected.
//
// The blob holds raw private key material: callers MUST seal it (persist::SealKey)
// before it enters a snapshot section, exactly like RNG state and transform material.
#ifndef DETA_PERSIST_PAILLIER_KEY_CODEC_H_
#define DETA_PERSIST_PAILLIER_KEY_CODEC_H_

#include <optional>

#include "common/bytes.h"
#include "crypto/paillier.h"

namespace deta::persist {

Bytes SerializePaillierKey(const crypto::PaillierKeyPair& kp);

// nullopt on malformed/truncated input, any version but 3, or primes that do not
// multiply to n. The returned key has its Montgomery contexts and CRT values rebuilt
// and ready.
std::optional<crypto::PaillierKeyPair> ParsePaillierKey(const Bytes& blob);

}  // namespace deta::persist

#endif  // DETA_PERSIST_PAILLIER_KEY_CODEC_H_
