// MUST produce TC-TELEMETRY: the mapper seed is exposed, folded into a metric
// label through an intermediate string, and registered two statements later.
// The registration only names `label`.
#include <string>
#include <vector>

using Bytes = std::vector<unsigned char>;

namespace deta {
template <typename T>
class Secret;
}  // namespace deta

struct Counter {
  void Increment();
};
struct Registry {
  Counter& GetCounter(const std::string& name);
};

std::string ToHex(const Bytes& b);

struct TransformMaterial {
  deta::Secret<Bytes> mapper_seed;
};

void CountTransform(Registry& telemetry, TransformMaterial& material) {
  const Bytes& seed = material.mapper_seed.ExposeForCrypto();
  std::string label = "mapper." + ToHex(seed);
  telemetry.GetCounter(label).Increment();
}
