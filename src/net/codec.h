// Append-only binary serialization for protocol messages. Little-endian, length-prefixed;
// a Reader checks bounds on every read so malformed frames fail loudly instead of reading
// out of bounds.
#ifndef DETA_NET_CODEC_H_
#define DETA_NET_CODEC_H_

#include <bit>
#include <cstring>
#include <limits>
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
    buffer_.insert(buffer_.end(), b.begin(), b.end());
  }
  void WriteString(const std::string& s) { WriteBytes(StringToBytes(s)); }
  void WriteFloatVector(const std::vector<float>& v) {
    // The bulk path memcpys host floats straight into the little-endian wire format;
    // that is only a valid encoding on little-endian IEEE-754 binary32 hosts.
    static_assert(std::endian::native == std::endian::little,
                  "WriteFloatVector memcpys host floats; port the bulk path before "
                  "building on a big-endian target");
    static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
                  "WriteFloatVector requires IEEE-754 binary32 floats");
    WriteU64(v.size());
    size_t old = buffer_.size();
    buffer_.resize(old + v.size() * sizeof(float));
    std::memcpy(buffer_.data() + old, v.data(), v.size() * sizeof(float));
  }
  void WriteU32Vector(const std::vector<uint32_t>& v) {
    WriteU64(v.size());
    for (uint32_t x : v) {
      WriteU32(x);
    }
  }

  // Sizes the buffer once, so writing up to |bytes| never reallocates it (and never
  // frees a copy of what was already written).
  void Reserve(size_t bytes) { buffer_.reserve(bytes); }
  const Bytes& buffer() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }

 private:
  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data) {}

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
  Bytes ReadBytes() {
    uint64_t n = ReadU64();
    DETA_CHECK_LE(pos_ + n, data_.size());
    Bytes out(data_.begin() + static_cast<long>(pos_),
              data_.begin() + static_cast<long>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string ReadString() { return BytesToString(ReadBytes()); }
  std::vector<float> ReadFloatVector() {
    // Mirror of Writer::WriteFloatVector's bulk memcpy; same host-layout requirements.
    static_assert(std::endian::native == std::endian::little,
                  "ReadFloatVector memcpys wire bytes into host floats; port the bulk "
                  "path before building on a big-endian target");
    static_assert(sizeof(float) == 4 && std::numeric_limits<float>::is_iec559,
                  "ReadFloatVector requires IEEE-754 binary32 floats");
    uint64_t n = ReadU64();
    DETA_CHECK_LE(pos_ + n * sizeof(float), data_.size());
    std::vector<float> out(n);
    std::memcpy(out.data(), data_.data() + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
    return out;
  }
  std::vector<uint32_t> ReadU32Vector() {
    uint64_t n = ReadU64();
    std::vector<uint32_t> out(n);
    for (auto& x : out) {
      x = ReadU32();
    }
    return out;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  const Bytes& data_;
  size_t pos_ = 0;
};

}  // namespace deta::net

#endif  // DETA_NET_CODEC_H_
