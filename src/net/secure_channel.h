// Established secure channel state: AEAD framing bound to a channel identity, a
// direction, and a monotonically increasing sequence number. Key agreement (ECDH) and
// endpoint authentication (ECDSA over attestation tokens) happen in the two-phase auth
// protocol (src/core/auth_protocol.h); this class is the record layer — the stand-in for
// TLS in the paper's deployment.
//
// Frame layout: seq(8, LE) || nonce(12) || ciphertext || tag(16). The frame is built in
// the caller's buffer, behind whatever headroom the caller wrote first (the round
// protocol's round number and sealed length): Seal appends seq and the nonce slot, lets
// the caller append the plaintext, encrypts it where it lies and appends the tag, so a
// sender writes the plaintext once and copies nothing after. OpenInPlace decrypts the
// ciphertext where it lies in the received message and returns its span, so a receiver
// copies nothing either; a frame whose tag fails is wiped. The Bytes forms (Seal of a
// plaintext, Open returning Bytes) wrap the two. The AEAD (ChaCha20-Poly1305, crypto/aead.h)
// associated data is channel_id || direction || seq, where the direction label depends
// on the sender's role, so a frame can neither be replayed on another channel, nor
// reflected back to its sender, nor replayed on the same channel (Open rejects
// non-monotonic sequences).
#ifndef DETA_NET_SECURE_CHANNEL_H_
#define DETA_NET_SECURE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "common/secret.h"
#include "crypto/aead.h"
#include "net/codec.h"

namespace deta::net {

// Which side of the handshake this channel object belongs to: the initiator (the party,
// who started the registration) or the responder (aggregator / key broker).
enum class ChannelRole { kInitiator, kResponder };

class SecureChannel {
 public:
  // |master_secret| from key agreement; |channel_id| binds frames to this channel.
  SecureChannel(const Bytes& master_secret, std::string channel_id, ChannelRole role);

  // The retained master secret is a Secret member and wipes itself on destruction.

  // seq || nonce ahead of the ciphertext, the tag behind it.
  static constexpr size_t kHeaderSize = sizeof(uint64_t) + crypto::kChaChaNonceSize;
  static constexpr size_t kOverhead = kHeaderSize + crypto::kAeadTagSize;

  // Seals with the next outbound sequence number, in |frame|'s buffer: whatever |frame|
  // holds on entry is the caller's headroom and is left as it is. Appends seq and the
  // nonce slot, has |write_plaintext| append the plaintext, encrypts it in place and
  // appends the tag. Not idempotent: a retransmitted protocol message must be re-sealed,
  // not re-sent byte-for-byte, or the receiver's monotonicity check will discard it as a
  // replay.
  void Seal(Writer& frame, const std::function<void(Writer&)>& write_plaintext,
            crypto::SecureRng& rng);
  // The Bytes form: a frame of its own holding a sealed copy of |plaintext|.
  Bytes Seal(const Bytes& plaintext, crypto::SecureRng& rng);

  // Verifies |frame| and decrypts it where it lies, returning the plaintext's span inside
  // |frame|. nullopt on authentication failure (the frame is then wiped, so no plaintext
  // stays behind), on a frame sealed for the other direction (reflection), and on a
  // sequence number at or below the last accepted one (replay / reordering past an
  // already-accepted frame).
  std::optional<std::span<uint8_t>> OpenInPlace(std::span<uint8_t> frame);
  // The Bytes form: the plaintext of |frame| in a buffer of its own.
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
  // The one open path: checks seq, then verifies |frame| and decrypts it into
  // |plaintext| (its own ciphertext bytes or a disjoint buffer), advancing the replay
  // window on success and counting the outcome.
  bool OpenTo(std::span<const uint8_t> frame, std::span<uint8_t> plaintext);

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
