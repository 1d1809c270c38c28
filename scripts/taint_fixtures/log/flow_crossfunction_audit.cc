// MUST produce TC-LOG: the exposure happens in one function, the taint rides a
// call argument through a formatting helper, and the sink fires inside a third
// function. No single statement connects the secret to the log.
#include <string>
#include <vector>

using Bytes = std::vector<unsigned char>;

namespace deta {
template <typename T>
class Secret;
}  // namespace deta

struct Logger {};
Logger& log_stream();
Logger& operator<<(Logger& l, const std::string& s);
#define LOG_WARNING log_stream()

std::string ToHex(const Bytes& b);

static std::string DescribeKey(const Bytes& key_bytes) {
  return "key=" + ToHex(key_bytes);
}

static void Audit(const std::string& detail) {
  LOG_WARNING << "audit: " << detail;
}

void ReportChannel(deta::Secret<Bytes>& key) {
  const Bytes& raw = key.ExposeForCrypto();
  Audit(DescribeKey(raw));
}
