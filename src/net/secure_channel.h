// Established secure channel state: AEAD framing bound to a channel identity, a
// direction, and a monotonically increasing sequence number. Key agreement (ECDH) and
// endpoint authentication (ECDSA over attestation tokens) happen in the two-phase auth
// protocol (src/core/auth_protocol.h); this class is the record layer — the stand-in for
// TLS in the paper's deployment.
//
// Frame layout: seq(8, LE) || nonce(12) || ciphertext || tag(16), one buffer: Seal has
// the AEAD leave 8 bytes of headroom for seq, and Open hands the AEAD the span past seq,
// so neither side copies the sealed body. The AEAD (ChaCha20-Poly1305, crypto/aead.h)
// associated data is channel_id || direction || seq, where the direction label depends
// on the sender's role, so a frame can neither be replayed on another channel, nor
// reflected back to its sender, nor replayed on the same channel (Open rejects
// non-monotonic sequences).
#ifndef DETA_NET_SECURE_CHANNEL_H_
#define DETA_NET_SECURE_CHANNEL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "common/secret.h"
#include "crypto/aead.h"

namespace deta::net {

// Which side of the handshake this channel object belongs to: the initiator (the party,
// who started the registration) or the responder (aggregator / key broker).
enum class ChannelRole { kInitiator, kResponder };

class SecureChannel {
 public:
  // |master_secret| from key agreement; |channel_id| binds frames to this channel.
  SecureChannel(const Bytes& master_secret, std::string channel_id, ChannelRole role);

  // The retained master secret is a Secret member and wipes itself on destruction.

  // Seals |plaintext| with the next outbound sequence number. Not idempotent: a
  // retransmitted protocol message must be re-sealed, not re-sent byte-for-byte, or the
  // receiver's monotonicity check will discard it as a replay.
  Bytes Seal(const Bytes& plaintext, crypto::SecureRng& rng);

  // Verifies and decrypts; nullopt on authentication failure, on a frame sealed for the
  // other direction (reflection), and on a sequence number at or below the last accepted
  // one (replay / reordering past an already-accepted frame).
  std::optional<Bytes> Open(const Bytes& frame);

  const std::string& channel_id() const { return channel_id_; }
  ChannelRole role() const { return role_; }

  // Channel state for checkpoint/resume: master secret, identity, role, and both
  // sequence counters. Contains the master secret — callers must seal it before it
  // reaches disk (persist::SealKey).
  Bytes SerializeState() const;
  // Rebuilds a channel from SerializeState output. |send_seq_slack| is added to the
  // restored outbound counter: frames sealed after the snapshot but before the crash
  // consumed sequence numbers the peer has already accepted, and the peer's monotonic
  // replay window silently discards any reuse. The slack (kResumeSeqSlack in the resume
  // paths) jumps past that burned range; the window only requires inbound sequences to
  // increase, not to be dense.
  static std::optional<SecureChannel> DeserializeState(const Bytes& data,
                                                       uint64_t send_seq_slack = 0);

 private:
  Bytes AssociatedData(ChannelRole sender, uint64_t seq) const;

  crypto::Aead aead_;  // wipes its own keys on destruction
  Secret<Bytes> master_secret_;  // retained for SerializeState
  std::string channel_id_;
  ChannelRole role_;
  uint64_t send_seq_ = 0;       // last sequence number sealed
  uint64_t last_accepted_ = 0;  // last sequence number successfully opened
};

// Send-sequence slack for channels restored on resume: far more than one round can send.
inline constexpr uint64_t kResumeSeqSlack = uint64_t{1} << 20;

// Channel-map codec for durable roles (aggregators and the key broker checkpoint their
// party channels). The bytes carry master secrets: seal them before they reach disk.
Bytes SerializeChannels(const std::map<std::string, SecureChannel>& channels);
// Restores SerializeChannels output, adding kResumeSeqSlack to every send counter.
// nullopt when a channel does not parse; truncated input throws CheckFailure, like every
// net::Reader.
std::optional<std::map<std::string, SecureChannel>> RestoreChannels(const Bytes& data);

}  // namespace deta::net

#endif  // DETA_NET_SECURE_CHANNEL_H_
