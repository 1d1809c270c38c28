// MUST produce TC-TELEMETRY: a helper exposes the token key and returns a
// string derived from it; the caller folds the returned value into a gauge
// name. The taint crosses the function boundary via the return value.
#include <string>
#include <vector>

using Bytes = std::vector<unsigned char>;

namespace deta {
template <typename T>
class Secret;
}  // namespace deta

struct BigUint {};

struct Gauge {
  void Set(int v);
};
struct Registry {
  Gauge& GetGauge(const std::string& name);
};

std::string FormatScalar(const BigUint& k);

static std::string TokenTag(deta::Secret<BigUint>& token_private) {
  const BigUint& k = token_private.ExposeForSeal();
  return FormatScalar(k);
}

void RecordAuth(Registry& reg, deta::Secret<BigUint>& token_private) {
  std::string tag = TokenTag(token_private);
  reg.GetGauge("auth." + tag).Set(1);
}
