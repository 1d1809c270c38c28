// The model update: a flattened parameter (or gradient) vector plus its aggregation
// weight. The paper's key observation (§3.1) is that aggregation algorithms act
// coordinate-wise on exactly this flat view, which is what makes DeTA's partitioning and
// shuffling transparent to them.
#ifndef DETA_FL_UPDATE_H_
#define DETA_FL_UPDATE_H_

#include <bit>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace deta::net {
class Writer;
}  // namespace deta::net

namespace deta::fl {

struct ModelUpdate {
  std::vector<float> values;
  // Aggregation weight (n_i, the party's sample count, for weighted averaging).
  double weight = 1.0;

  size_t size() const { return values.size(); }
};

// Floats read where they lie in a byte buffer, such as a received message. Each element
// is loaded with memcpy, which reads the bytes as a float with defined behaviour at any
// alignment and compiles to a plain load, so the view costs what a float pointer would.
// Valid while the viewed bytes live.
class FloatSpan {
 public:
  static_assert(std::endian::native == std::endian::little &&
                    std::numeric_limits<float>::is_iec559,
                "FloatSpan reads little-endian binary32 wire bytes as host floats");

  FloatSpan() = default;
  // |size| floats at |bytes|.
  FloatSpan(const uint8_t* bytes, size_t size) : bytes_(bytes), size_(size) {}
  // Floats that are floats already, such as a ModelUpdate's values. Implicit, so a
  // vector or span of floats passes wherever a view is taken.
  FloatSpan(std::span<const float> values)  // NOLINT(google-explicit-constructor)
      : bytes_(reinterpret_cast<const uint8_t*>(values.data())), size_(values.size()) {}
  FloatSpan(const std::vector<float>& values)  // NOLINT(google-explicit-constructor)
      : FloatSpan(std::span<const float>(values)) {}

  size_t size() const { return size_; }
  float operator[](size_t i) const {
    float v;
    std::memcpy(&v, bytes_ + i * sizeof(float), sizeof(float));
    return v;
  }
  // Copies the floats out: to |out| (size() of them), or into a vector of their own.
  void CopyTo(float* out) const { std::memcpy(out, bytes_, size_ * sizeof(float)); }
  std::vector<float> ToVector() const {
    std::vector<float> out(size_);
    CopyTo(out.data());
    return out;
  }

 private:
  const uint8_t* bytes_ = nullptr;
  size_t size_ = 0;
};

// A model update read where it lies: the values of a received wire-form update, or of a
// ModelUpdate, borrowed instead of copied. Aggregation runs over views, so an aggregator
// reads the fragments in the messages it received.
struct UpdateView {
  FloatSpan values;
  double weight = 1.0;

  size_t size() const { return values.size(); }
};

inline UpdateView View(const ModelUpdate& update) { return {update.values, update.weight}; }

// Wire form used by both FFL and DeTA transports: f64 weight || u64 n || n f32 values,
// little-endian.
constexpr size_t UpdateWireSize(size_t values) { return 16 + 4 * values; }
// Appends the wire form to |w|. The one serializer: a party writes each fragment with it
// straight into the frame that seals it.
void WriteUpdate(net::Writer& w, double weight, std::span<const float> values);
// Parses the wire form in place; throws CheckFailure when |data| is malformed.
UpdateView ViewUpdate(std::span<const uint8_t> data);
// The copying forms.
Bytes SerializeUpdate(const ModelUpdate& update);
ModelUpdate DeserializeUpdate(const Bytes& data);

}  // namespace deta::fl

#endif  // DETA_FL_UPDATE_H_
