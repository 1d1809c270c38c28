#include "common/bytes.h"

#include "common/check.h"

namespace deta {

namespace {

int HexNibble(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

}  // namespace

std::string ToHex(const Bytes& data) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Bytes FromHex(const std::string& hex) {
  DETA_CHECK_MSG(hex.size() % 2 == 0, "hex string must have even length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexNibble(hex[i]);
    int lo = HexNibble(hex[i + 1]);
    DETA_CHECK_MSG(hi >= 0 && lo >= 0, "invalid hex digit");
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes StringToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

std::string BytesToString(const Bytes& b) { return std::string(b.begin(), b.end()); }

void AppendU32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t ReadU32(std::span<const uint8_t> in, size_t offset) {
  DETA_CHECK_LE(offset + 4, in.size());
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(in[offset + i]) << (8 * i);
  }
  return v;
}

uint64_t ReadU64(std::span<const uint8_t> in, size_t offset) {
  DETA_CHECK_LE(offset + 8, in.size());
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(in[offset + i]) << (8 * i);
  }
  return v;
}

bool ConstantTimeEqual(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) {
    return false;
  }
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff |= static_cast<uint8_t>(a[i] ^ b[i]);
  }
  return diff == 0;
}

}  // namespace deta
