// MUST produce TC-LOG: the caller exposes the channel key and passes it to a
// method defined out of line, whose parameter list spans three lines; the
// method logs the parameter. The flow is found only if the parser reads the
// qualified `AuditLog::Record` definition and its parameter names across the
// line breaks, so the call's second argument lands on `key_bytes`.
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

class AuditLog {
 public:
  void Record(const std::string& peer, const Bytes& key_bytes, int round);
};

void AuditLog::Record(const std::string& peer,
                      const Bytes& key_bytes,
                      int round) {
  LOG_INFO << "round " << round << " peer " << peer << " key " << ToHex(key_bytes);
}

void CloseChannel(AuditLog& audit, deta::Secret<Bytes>& channel_key) {
  const Bytes& raw = channel_key.ExposeForCrypto();
  audit.Record("peer-0", raw, 3);
}
