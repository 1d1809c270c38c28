#include "net/retry.h"

#include <algorithm>

#include "common/logging.h"
#include "common/telemetry.h"

namespace deta::net {

int RetryPolicy::TimeoutForAttempt(int attempt) const {
  double t = static_cast<double>(initial_timeout_ms);
  for (int i = 0; i < attempt; ++i) {
    t *= 2.0;
    if (t >= static_cast<double>(max_timeout_ms)) {
      return max_timeout_ms;
    }
  }
  return std::min(static_cast<int>(t), max_timeout_ms);
}

int RetryPolicy::TotalBudgetMs() const {
  int total = 0;
  for (int i = 0; i < max_attempts; ++i) {
    total += TimeoutForAttempt(i);
  }
  return total;
}

std::optional<Message> RequestReply(Endpoint& endpoint, const std::string& to,
                                    const std::string& request_type, const Bytes& payload,
                                    const std::string& reply_type,
                                    const RetryPolicy& policy) {
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    DETA_COUNTER("net.retry.attempts").Increment();
    if (!endpoint.Send(to, request_type, payload)) {
      LOG_WARNING << endpoint.name() << ": " << to << " is gone; abandoning "
                  << request_type;
      DETA_COUNTER("net.retry.peer_gone").Increment();
      return std::nullopt;
    }
    std::optional<Message> reply =
        endpoint.ReceiveMatchFor(reply_type, to, policy.TimeoutForAttempt(attempt));
    if (reply.has_value()) {
      return reply;
    }
    if (endpoint.closed()) {
      return std::nullopt;  // we are shutting down, not the peer timing out
    }
    // Timed-out attempt. The backoff total sums the *configured* per-attempt timeouts
    // (deterministic), not wall time actually slept.
    DETA_COUNTER("net.retry.timeouts").Increment();
    DETA_COUNTER("net.retry.backoff_ms_total")
        .Add(static_cast<uint64_t>(policy.TimeoutForAttempt(attempt)));
    if (attempt + 1 < policy.max_attempts) {
      LOG_DEBUG << endpoint.name() << ": no " << reply_type << " from " << to
                << " within " << policy.TimeoutForAttempt(attempt) << "ms; retransmitting "
                << request_type << " (attempt " << attempt + 2 << "/"
                << policy.max_attempts << ")";
    }
  }
  LOG_WARNING << endpoint.name() << ": " << to << " unresponsive after "
              << policy.max_attempts << " " << request_type << " attempts";
  DETA_COUNTER("net.retry.exhausted").Increment();
  return std::nullopt;
}

}  // namespace deta::net
