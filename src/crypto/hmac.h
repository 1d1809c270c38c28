// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869). HKDF derives AEAD keys from ECDH shared
// secrets and snapshot seal keys; HMAC keys ECDSA's deterministic nonces and derives the
// per-round shuffle seeds from the permutation key. Frames are authenticated by Poly1305
// (crypto/aead.h), not by HMAC.
#ifndef DETA_CRYPTO_HMAC_H_
#define DETA_CRYPTO_HMAC_H_

#include "common/bytes.h"

namespace deta::crypto {

// HMAC-SHA256 of |data| under |key|. 32-byte output.
Bytes HmacSha256(const Bytes& key, const Bytes& data);

// HKDF-Extract: PRK = HMAC(salt, ikm).
Bytes HkdfExtract(const Bytes& salt, const Bytes& ikm);

// HKDF-Expand: derives |length| bytes (<= 255 * 32) from a PRK and context info.
Bytes HkdfExpand(const Bytes& prk, const Bytes& info, size_t length);

// Extract-then-expand convenience.
Bytes Hkdf(const Bytes& salt, const Bytes& ikm, const Bytes& info, size_t length);

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_HMAC_H_
