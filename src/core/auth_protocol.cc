#include "core/auth_protocol.h"

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "core/role.h"
#include "crypto/hmac.h"
#include "net/codec.h"

namespace deta::core {

namespace {

const crypto::Secp256k1& Curve() { return crypto::Secp256k1::Instance(); }

// Transcript bound by the aggregator's registration signature: both ECDH shares and the
// party identity, so the handshake cannot be spliced across sessions or parties.
Bytes RegistrationTranscript(const std::string& party, const Bytes& party_share,
                             const Bytes& aggregator_share) {
  net::Writer w;
  w.WriteString("deta-register-v1");
  w.WriteString(party);
  w.WriteBytes(party_share);
  w.WriteBytes(aggregator_share);
  return w.Take();
}

// Shared responder-side core: derive a channel from |registration| and build the wire
// ack. Returns nullopt on a malformed share.
struct RegistrationAck {
  Bytes ack_wire;
  net::SecureChannel channel;
};

std::optional<RegistrationAck> BuildRegistrationAck(
    const std::string& responder, const net::Message& registration,
    const Secret<crypto::BigUint>& token_private, crypto::SecureRng& rng) {
  std::optional<crypto::EcPoint> party_point = Curve().Decode(registration.payload);
  if (!party_point.has_value() || party_point->is_infinity) {
    LOG_WARNING << responder << ": malformed registration share from "
                << registration.from;
    return std::nullopt;
  }
  crypto::EcKeyPair ephemeral = crypto::GenerateEcKey(rng);
  Bytes my_share = Curve().Encode(ephemeral.public_key);
  Bytes transcript =
      RegistrationTranscript(registration.from, registration.payload, my_share);
  crypto::EcdsaSignature sig = crypto::EcdsaSign(token_private, transcript);

  net::Writer w;
  w.WriteBytes(my_share);
  w.WriteBytes(sig.Serialize());

  Bytes master = crypto::EcdhSharedSecret(ephemeral.private_key, *party_point);
  return RegistrationAck{
      w.Take(), net::SecureChannel(master, ChannelId(registration.from, responder),
                                   net::ChannelRole::kResponder)};
}

}  // namespace

std::string ChannelId(const std::string& party, const std::string& aggregator) {
  return "chan:" + party + ":" + aggregator;
}

bool VerifyAggregator(net::Endpoint& endpoint, const std::string& aggregator,
                      const crypto::EcPoint& token_public, crypto::SecureRng& rng,
                      const net::RetryPolicy& policy) {
  telemetry::Span span("core.auth.verify");
  DETA_COUNTER("core.auth.verify_started").Increment();
  Bytes nonce = rng.NextBytes(32);
  std::optional<net::Message> reply =
      net::RequestReply(endpoint, aggregator, kAuthChallenge, nonce, kAuthResponse,
                        policy);
  if (!reply.has_value()) {
    return false;
  }
  if (reply->payload.size() != 64) {
    return false;
  }
  crypto::EcdsaSignature sig = crypto::EcdsaSignature::Deserialize(reply->payload);
  bool ok = crypto::EcdsaVerify(token_public, nonce, sig);
  if (!ok) {
    LOG_WARNING << endpoint.name() << ": aggregator " << aggregator
                << " failed token challenge — refusing to register";
  } else {
    DETA_COUNTER("core.auth.verify_ok").Increment();
  }
  return ok;
}

std::optional<net::SecureChannel> RegisterWithAggregator(
    net::Endpoint& endpoint, const std::string& aggregator,
    const crypto::EcPoint& token_public, crypto::SecureRng& rng,
    const net::RetryPolicy& policy) {
  telemetry::Span span("core.auth.register");
  DETA_COUNTER("core.auth.register_started").Increment();
  crypto::EcKeyPair ephemeral = crypto::GenerateEcKey(rng);
  Bytes my_share = Curve().Encode(ephemeral.public_key);

  // The same share is retransmitted on every attempt, so the responder's
  // RegistrationCache recognises re-registrations and keeps the channel keys stable.
  std::optional<net::Message> ack = net::RequestReply(
      endpoint, aggregator, kAuthRegister, my_share, kAuthRegisterAck, policy);
  if (!ack.has_value()) {
    return std::nullopt;
  }
  Bytes their_share;
  Bytes sig_bytes;
  if (!DropIfMalformed(endpoint.name(), *ack, [&] {
        net::Reader r(ack->payload);
        their_share = r.ReadBytes();
        sig_bytes = r.ReadBytes();
      }) ||
      sig_bytes.size() != 64) {
    return std::nullopt;
  }
  crypto::EcdsaSignature sig = crypto::EcdsaSignature::Deserialize(sig_bytes);
  Bytes transcript = RegistrationTranscript(endpoint.name(), my_share, their_share);
  if (!crypto::EcdsaVerify(token_public, transcript, sig)) {
    LOG_WARNING << endpoint.name() << ": registration transcript signature from "
                << aggregator << " invalid";
    return std::nullopt;
  }
  std::optional<crypto::EcPoint> their_point = Curve().Decode(their_share);
  if (!their_point.has_value() || their_point->is_infinity) {
    return std::nullopt;
  }
  Bytes master = crypto::EcdhSharedSecret(ephemeral.private_key, *their_point);
  DETA_COUNTER("core.auth.register_ok").Increment();
  return net::SecureChannel(master, ChannelId(endpoint.name(), aggregator),
                            net::ChannelRole::kInitiator);
}

void AnswerChallenge(net::Endpoint& endpoint, const net::Message& challenge,
                     const Secret<crypto::BigUint>& token_private) {
  crypto::EcdsaSignature sig = crypto::EcdsaSign(token_private, challenge.payload);
  endpoint.Send(challenge.from, kAuthResponse, sig.Serialize());
}

std::optional<std::pair<std::string, net::SecureChannel>> RegistrationCache::Accept(
    net::Endpoint& endpoint, const net::Message& registration,
    const Secret<crypto::BigUint>& token_private, crypto::SecureRng& rng) {
  auto it = entries_.find(registration.from);
  if (it != entries_.end() && it->second.party_share == registration.payload) {
    // Retransmitted registration: the party never saw our ack (or a duplicate survived
    // in flight). Re-send the identical ack so both sides converge on the same keys;
    // the channel created for the first copy stays valid.
    LOG_DEBUG << endpoint.name() << ": re-acking registration from "
              << registration.from;
    endpoint.Send(registration.from, kAuthRegisterAck, it->second.ack_wire);
    return std::nullopt;
  }
  std::optional<RegistrationAck> ack =
      BuildRegistrationAck(endpoint.name(), registration, token_private, rng);
  if (!ack.has_value()) {
    return std::nullopt;
  }
  entries_[registration.from] = Entry{registration.payload, ack->ack_wire};
  endpoint.Send(registration.from, kAuthRegisterAck, ack->ack_wire);
  return std::make_pair(registration.from, std::move(ack->channel));
}

Bytes RegistrationCache::Serialize() const {
  net::Writer w;
  w.WriteU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& [party, entry] : entries_) {
    w.WriteString(party);
    w.WriteBytes(entry.party_share);
    w.WriteBytes(entry.ack_wire);
  }
  return w.Take();
}

bool RegistrationCache::Deserialize(const Bytes& data) {
  try {
    net::Reader r(data);
    uint32_t count = r.ReadU32();
    std::map<std::string, Entry> entries;
    for (uint32_t i = 0; i < count; ++i) {
      std::string party = r.ReadString();
      Bytes share = r.ReadBytes();
      Bytes ack = r.ReadBytes();
      entries[std::move(party)] = Entry{std::move(share), std::move(ack)};
    }
    if (!r.AtEnd()) {
      return false;
    }
    entries_ = std::move(entries);
    return true;
  } catch (const CheckFailure&) {
    return false;
  }
}

}  // namespace deta::core
