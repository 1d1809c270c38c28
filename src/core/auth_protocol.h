// Phase II of the paper's two-phase authentication (§4.3), as concrete message exchanges
// over the bus:
//
//   1. challenge/response — the party sends a random nonce; the aggregator signs it with
//      the ECDSA token the attestation proxy provisioned in phase I; the party verifies
//      against the token public key in the AP registry. Only attested aggregators hold a
//      token, so a verified signature proves SEV-protected, measurement-checked code.
//   2. registration + secure channel — the party registers and both sides run an ECDH
//      exchange, with the aggregator signing the handshake transcript using the same
//      token (authenticated key agreement; the TLS stand-in). All subsequent model-update
//      traffic is sealed on the resulting channel.
//
// All party-side waits are bounded (net/retry.h): a lost challenge, response, register or
// ack is retransmitted with capped exponential backoff, and replies are matched by sender
// so a delayed reply from another aggregator cannot fail the current handshake.
// Retransmitted registrations are handled idempotently on the responder via
// RegistrationCache — the cached ack re-establishes the *same* channel keys, so both
// sides agree on channel state no matter which copy of which message survived.
#ifndef DETA_CORE_AUTH_PROTOCOL_H_
#define DETA_CORE_AUTH_PROTOCOL_H_

#include <map>
#include <optional>
#include <string>

#include "crypto/ec.h"
#include "crypto/ecdsa.h"
#include "net/retry.h"
#include "net/secure_channel.h"

namespace deta::core {

// Message type tags.
inline constexpr char kAuthChallenge[] = "auth.challenge";
inline constexpr char kAuthResponse[] = "auth.response";
inline constexpr char kAuthRegister[] = "auth.register";
inline constexpr char kAuthRegisterAck[] = "auth.register_ack";

// Canonical channel id for a (party, aggregator) pair.
std::string ChannelId(const std::string& party, const std::string& aggregator);

// --- party side ---

// Step 1: challenge-response verification of one aggregator. Bounded: retransmits the
// challenge per |policy| and fails (false) when the aggregator stays unresponsive.
bool VerifyAggregator(net::Endpoint& endpoint, const std::string& aggregator,
                      const crypto::EcPoint& token_public, crypto::SecureRng& rng,
                      const net::RetryPolicy& policy = {});

// Step 2: registration + authenticated ECDH. Returns the established channel (initiator
// role), or nullopt if the transcript signature fails or the aggregator stays silent.
std::optional<net::SecureChannel> RegisterWithAggregator(
    net::Endpoint& endpoint, const std::string& aggregator,
    const crypto::EcPoint& token_public, crypto::SecureRng& rng,
    const net::RetryPolicy& policy = {});

// --- aggregator side ---

// Responds to one kAuthChallenge message. Naturally idempotent: a retransmitted
// challenge is simply answered again. The token key stays inside its Secret wrapper
// all the way down to EcdsaSign, which is the only exposure point.
void AnswerChallenge(net::Endpoint& endpoint, const net::Message& challenge,
                     const Secret<crypto::BigUint>& token_private);

// Responder-side registration state: caches the ack sent to each party so a
// retransmitted registration (same party, same ECDH share) is answered with the
// identical ack — re-deriving the same master secret — instead of re-keying a channel
// the party may already be using. A registration with a *different* share (the party
// restarted) re-keys and returns the fresh channel.
class RegistrationCache {
 public:
  // Processes one kAuthRegister message, replying to the party unless its share is
  // malformed. Returns a channel only when one was (re-)created; nullopt for cached
  // re-acks and malformed shares.
  std::optional<std::pair<std::string, net::SecureChannel>> Accept(
      net::Endpoint& endpoint, const net::Message& registration,
      const Secret<crypto::BigUint>& token_private, crypto::SecureRng& rng);

  // Cache contents for checkpoint/resume. The cached acks carry ECDH transcript
  // material — callers must seal the blob before it reaches disk.
  Bytes Serialize() const;
  // Replaces the cache contents; false (cache unchanged) on a malformed blob.
  bool Deserialize(const Bytes& data);

 private:
  struct Entry {
    Bytes party_share;
    Bytes ack_wire;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace deta::core

#endif  // DETA_CORE_AUTH_PROTOCOL_H_
