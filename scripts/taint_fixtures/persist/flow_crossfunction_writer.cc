// MUST produce TC-PERSIST: a serializer helper absorbs exposed seed bytes into
// a Writer and returns the buffer; the caller persists the returned blob
// unsealed. Two functions, a builder object, and no statement that names both
// the secret and the sink.
#include <cstdint>
#include <string>
#include <vector>

using Bytes = std::vector<unsigned char>;

namespace deta {
template <typename T>
class Secret;
}  // namespace deta

namespace net {
struct Writer {
  void WriteU32(uint32_t v);
  void WriteBytes(const Bytes& b);
  Bytes Take();
};
}  // namespace net

namespace persist {
enum class SectionType { kRaw, kKeyMaterial };
struct Snapshot {
  void Add(SectionType type, const std::string& name, const Bytes& payload);
};
}  // namespace persist

struct TransformMaterial {
  deta::Secret<Bytes> mapper_seed;
  uint32_t epoch = 0;
};

static Bytes PackMaterial(const TransformMaterial& material) {
  net::Writer w;
  w.WriteU32(material.epoch);
  w.WriteBytes(material.mapper_seed.ExposeForSeal());
  return w.Take();
}

void CheckpointMaterial(persist::Snapshot& snap, const TransformMaterial& material) {
  Bytes packed = PackMaterial(material);
  snap.Add(persist::SectionType::kKeyMaterial, "material", packed);
}
