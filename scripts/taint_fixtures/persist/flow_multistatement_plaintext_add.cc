// MUST produce TC-PERSIST: the permutation key is exposed into a local and
// written to a snapshot section two statements later with no Seal() anywhere.
// The Add() only names the local `blob`.
#include <string>
#include <vector>

using Bytes = std::vector<unsigned char>;

namespace deta {
template <typename T>
class Secret;
}  // namespace deta

namespace persist {
enum class SectionType { kRaw, kKeyMaterial };
struct Snapshot {
  void Add(SectionType type, const std::string& name, const Bytes& payload);
};
}  // namespace persist

struct TransformMaterial {
  deta::Secret<Bytes> permutation_key;
};

void CheckpointKeys(persist::Snapshot& snap, TransformMaterial& material) {
  const Bytes& blob = material.permutation_key.ExposeForSeal();
  snap.Add(persist::SectionType::kKeyMaterial, "permutation", blob);
}
