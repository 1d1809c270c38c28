// Append-only binary serialization for protocol messages. Little-endian, length-prefixed;
// a Reader checks bounds on every read so malformed frames fail loudly instead of reading
// out of bounds. A Reader reads a span in place: ReadSpan borrows a length-prefixed field
// without copying it, so a receiver can parse a message where it lies.
#ifndef DETA_NET_CODEC_H_
#define DETA_NET_CODEC_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"

namespace deta::net {

class Writer {
 public:
  void WriteU32(uint32_t v) { AppendU32(buffer_, v); }
  void WriteU64(uint64_t v) { AppendU64(buffer_, v); }
  void WriteI64(int64_t v) { AppendU64(buffer_, static_cast<uint64_t>(v)); }
  void WriteFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU32(bits);
  }
  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }
  void WriteBytes(const Bytes& b) {
    WriteU64(b.size());
    WriteRaw(b);
  }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw({reinterpret_cast<const uint8_t*>(s.data()), s.size()});
  }
  void WriteFloatVector(const std::vector<float>& v) {
    WriteFloatVector(std::span<const float>(v));
  }
  void WriteFloatVector(std::span<const float> v) {
    // The bulk path memcpys host floats straight into the little-endian wire format;
    // that is only a valid encoding on little-endian IEEE-754 binary32 hosts.
    static_assert(std::endian::native == std::endian::little,
                  "WriteFloatVector memcpys host floats; port the bulk path before "
                  "building on a big-endian target");
    static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
                  "WriteFloatVector requires IEEE-754 binary32 floats");
    WriteU64(v.size());
    WriteRaw({reinterpret_cast<const uint8_t*>(v.data()), v.size() * sizeof(float)});
  }
  void WriteU32Vector(const std::vector<uint32_t>& v) {
    WriteU64(v.size());
    for (uint32_t x : v) {
      WriteU32(x);
    }
  }

  // Appends |b| with no length prefix.
  void WriteRaw(std::span<const uint8_t> b) { buffer_.insert(buffer_.end(), b.begin(), b.end()); }
  // Appends |n| zero bytes for a later writer to fill in place (a seal's nonce and tag).
  void Pad(size_t n) { buffer_.resize(buffer_.size() + n); }

  // Sizes the buffer once, so writing up to |bytes| never reallocates it (and never
  // frees a copy of what was already written).
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }
  size_t size() const { return buffer_.size(); }
  const Bytes& buffer() const { return buffer_; }
  // The bytes written from |offset| on, for a writer that transforms them in place.
  std::span<uint8_t> WrittenFrom(size_t offset) {
    DETA_CHECK_LE(offset, buffer_.size());
    return std::span<uint8_t>(buffer_).subspan(offset);
  }
  Bytes Take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

// Reads a span it does not own: the bytes must outlive the Reader and every span it
// returns.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}

  uint32_t ReadU32() {
    uint32_t v = deta::ReadU32(data_, pos_);
    pos_ += 4;
    return v;
  }
  uint64_t ReadU64() {
    uint64_t v = deta::ReadU64(data_, pos_);
    pos_ += 8;
    return v;
  }
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  float ReadFloat() {
    uint32_t bits = ReadU32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  double ReadDouble() {
    uint64_t bits = ReadU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  // Lengths are checked against remaining(), never as pos_ + n, which a claimed length
  // near 2^64 wraps past the check.
  // A length-prefixed field, borrowed where it lies.
  std::span<const uint8_t> ReadSpan() {
    uint64_t n = ReadU64();
    DETA_CHECK_LE(n, remaining());
    std::span<const uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  Bytes ReadBytes() {
    std::span<const uint8_t> b = ReadSpan();
    return Bytes(b.begin(), b.end());
  }
  std::string ReadString() {
    std::span<const uint8_t> b = ReadSpan();
    return std::string(b.begin(), b.end());
  }
  std::vector<float> ReadFloatVector() {
    // Mirror of Writer::WriteFloatVector's bulk memcpy; same host-layout requirements.
    static_assert(std::endian::native == std::endian::little,
                  "ReadFloatVector memcpys wire bytes into host floats; port the bulk "
                  "path before building on a big-endian target");
    static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
                  "ReadFloatVector requires IEEE-754 binary32 floats");
    uint64_t n = ReadU64();
    DETA_CHECK_LE(n, remaining() / sizeof(float));
    std::vector<float> out(n);
    std::memcpy(out.data(), data_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return out;
  }
  // The bytes of ReadFloatVector's floats, borrowed where they lie instead of copied out
  // (fl::FloatSpan reads them as floats).
  std::span<const uint8_t> ReadFloatBytes() {
    uint64_t n = ReadU64();
    DETA_CHECK_LE(n, remaining() / sizeof(float));
    std::span<const uint8_t> out = data_.subspan(pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return out;
  }
  std::vector<uint32_t> ReadU32Vector() {
    uint64_t n = ReadU64();
    DETA_CHECK_LE(n, remaining() / sizeof(uint32_t));
    std::vector<uint32_t> out(n);
    for (auto& x : out) {
      x = ReadU32();
    }
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }
  // Bytes read so far: where the next field starts.
  size_t position() const { return pos_; }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace deta::net

#endif  // DETA_NET_CODEC_H_
