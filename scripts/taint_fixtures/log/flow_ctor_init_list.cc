// MUST produce TC-LOG: a constructor's member-initializer list formats the
// exposed session key into a plain member, and the constructor body logs that
// member. The flow is found only if the parser reads the initializer list,
// which it models as `key_hex_ = ToHex(...)` ahead of the body.
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
#define LOG_DEBUG log_stream()

std::string ToHex(const Bytes& b);

class SessionAudit {
 public:
  SessionAudit(const std::string& peer, deta::Secret<Bytes>& session_key);

 private:
  std::string peer_;
  std::string key_hex_;
};

SessionAudit::SessionAudit(const std::string& peer, deta::Secret<Bytes>& session_key)
    : peer_(peer),
      key_hex_(ToHex(session_key.ExposeForCrypto())) {
  LOG_DEBUG << "session with " << peer_ << " keyed " << key_hex_;
}
