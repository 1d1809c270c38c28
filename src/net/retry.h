// Bounded request/response with retransmission for the protocol fabric. Every blocking
// protocol wait in core/ goes through this (or through an explicit deadline loop): a
// request is sent, the reply awaited with a timeout, and on timeout the request is
// retransmitted with capped exponential backoff. Retransmissions carry fresh sequence
// tags — receivers must treat re-requests idempotently (see core/auth_protocol.h's
// RegistrationCache for the non-trivial case). A peer that is gone is not special: its
// requests are lost (net/transport.h), so a crashed peer revived within the budget is
// reached by the next retransmission, over either backend.
#ifndef DETA_NET_RETRY_H_
#define DETA_NET_RETRY_H_

#include <optional>
#include <string>

#include "net/transport.h"

namespace deta::net {

struct RetryPolicy {
  int initial_timeout_ms = 250;  // first wait before retransmitting
  int max_timeout_ms = 2000;     // cap on the per-attempt timeout
  int max_attempts = 6;          // total transmissions (first send + retries)

  // Per-attempt timeout (attempt is 0-based): doubles per attempt up to the cap.
  int TimeoutForAttempt(int attempt) const;
  // Upper bound on the total time RequestReply can block under this policy.
  int TotalBudgetMs() const;
};

// Sends |request_type| with |payload| to |to| and waits for a |reply_type| message from
// |to|, retransmitting per |policy|. Replies of the right type from other senders are
// stashed, not consumed, so concurrent conversations cannot steal each other's replies.
// Returns nullopt when attempts are exhausted or when the local endpoint closes.
std::optional<Message> RequestReply(Endpoint& endpoint, const std::string& to,
                                    const std::string& request_type, const Bytes& payload,
                                    const std::string& reply_type,
                                    const RetryPolicy& policy = {});

}  // namespace deta::net

#endif  // DETA_NET_RETRY_H_
