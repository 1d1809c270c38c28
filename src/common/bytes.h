// Byte-buffer alias and hex/serialization helpers shared across the crypto and
// networking substrates.
#ifndef DETA_COMMON_BYTES_H_
#define DETA_COMMON_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace deta {

using Bytes = std::vector<uint8_t>;

// Encodes |data| as lowercase hex.
std::string ToHex(const Bytes& data);

// Decodes a hex string (upper or lower case). Throws CheckFailure on malformed input.
Bytes FromHex(const std::string& hex);

// Converts a std::string payload into bytes and back.
Bytes StringToBytes(const std::string& s);
std::string BytesToString(const Bytes& b);

// Appends a fixed-width little-endian integer to |out| / reads it back.
void AppendU32(Bytes& out, uint32_t v);
void AppendU64(Bytes& out, uint64_t v);
uint32_t ReadU32(std::span<const uint8_t> in, size_t offset);
uint64_t ReadU64(std::span<const uint8_t> in, size_t offset);

// Constant-time equality for secrets (length leak is acceptable: lengths are public).
bool ConstantTimeEqual(const Bytes& a, const Bytes& b);

}  // namespace deta

#endif  // DETA_COMMON_BYTES_H_
