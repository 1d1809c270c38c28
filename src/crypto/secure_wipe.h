// Best-effort secret erasure: zeroes memory through a compiler barrier so the store
// cannot be elided as a dead write (the usual fate of a plain memset before free).
//
// Secret<T> (common/secret.h) calls these on destruction and reassignment. The kernels
// that keep key material outside a Secret<T> (Poly1305, the ChaCha20 block batch, EC
// scalars, Montgomery contexts over secret moduli) call them from their destructors. So
// key schedules, shared secrets, and seal keys do not linger in freed heap pages for a
// breach experiment (or a real exploit) to scrape. This is the in-process half of the
// paper's trust argument: secrets live only inside their trust domain *and* only for
// their useful lifetime.
#ifndef DETA_CRYPTO_SECURE_WIPE_H_
#define DETA_CRYPTO_SECURE_WIPE_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace deta::crypto {

// Zeroes [data, data+len) and prevents the compiler from discarding the store.
void SecureWipe(void* data, size_t len);

// Wipes a byte buffer's current contents in place (the buffer stays usable; callers in
// destructors don't care, callers reusing a buffer get zeros).
inline void SecureWipe(Bytes& buffer) { SecureWipe(buffer.data(), buffer.size()); }

template <size_t N>
inline void SecureWipe(std::array<uint8_t, N>& buffer) {
  SecureWipe(buffer.data(), buffer.size());
}

template <size_t N>
inline void SecureWipe(std::array<uint32_t, N>& buffer) {
  SecureWipe(buffer.data(), buffer.size() * sizeof(uint32_t));
}

}  // namespace deta::crypto

#endif  // DETA_CRYPTO_SECURE_WIPE_H_
