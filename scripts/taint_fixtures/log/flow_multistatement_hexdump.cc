// MUST produce TC-LOG: the channel key is exposed, hex-formatted through an
// intermediate local, and logged two statements later. The log line mentions
// only `hex`, so the flow shows only by following the assignments.
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
#define LOG_INFO log_stream()

std::string ToHex(const Bytes& b);

struct SessionKeys {
  deta::Secret<Bytes> channel_key;
};

void DumpSessionState(SessionKeys& keys) {
  const Bytes& raw = keys.channel_key.ExposeForCrypto();
  std::string hex = ToHex(raw);
  LOG_INFO << "channel key: " << hex;
}
