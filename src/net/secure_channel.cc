#include "net/secure_channel.h"

#include "common/check.h"
#include "common/telemetry.h"
#include "net/codec.h"

namespace deta::net {

SecureChannel::SecureChannel(const Bytes& master_secret, std::string channel_id,
                             ChannelRole role)
    : aead_(master_secret),
      master_secret_(master_secret),
      channel_id_(std::move(channel_id)),
      role_(role) {}

Bytes SecureChannel::SerializeState() const {
  net::Writer w;
  w.WriteString(channel_id_);
  w.WriteU32(role_ == ChannelRole::kInitiator ? 0 : 1);
  w.WriteU64(send_seq_);
  w.WriteU64(last_accepted_);
  // ExposeForSeal: channel state is checkpoint material; the persist layer seals it
  // under the role's SealKey before it reaches disk.
  w.WriteBytes(master_secret_.ExposeForSeal());
  return w.Take();
}

std::optional<SecureChannel> SecureChannel::DeserializeState(const Bytes& data,
                                                             uint64_t send_seq_slack) {
  try {
    net::Reader r(data);
    std::string channel_id = r.ReadString();
    uint32_t role_tag = r.ReadU32();
    if (role_tag > 1) {
      return std::nullopt;
    }
    uint64_t send_seq = r.ReadU64();
    uint64_t last_accepted = r.ReadU64();
    Bytes master = r.ReadBytes();
    if (!r.AtEnd() || master.empty()) {
      return std::nullopt;
    }
    SecureChannel channel(master, std::move(channel_id),
                          role_tag == 0 ? ChannelRole::kInitiator
                                        : ChannelRole::kResponder);
    channel.send_seq_ = send_seq + send_seq_slack;
    channel.last_accepted_ = last_accepted;
    return channel;
  } catch (const CheckFailure&) {
    return std::nullopt;
  }
}

Bytes SecureChannel::AssociatedData(ChannelRole sender, uint64_t seq) const {
  Bytes ad = StringToBytes(channel_id_);
  const char* direction = sender == ChannelRole::kInitiator ? "|i->r|" : "|r->i|";
  Bytes dir = StringToBytes(direction);
  ad.insert(ad.end(), dir.begin(), dir.end());
  AppendU64(ad, seq);
  return ad;
}

void SecureChannel::Seal(Writer& frame, const std::function<void(Writer&)>& write_plaintext,
                         crypto::SecureRng& rng) {
  DETA_COUNTER("net.channel.seal").Increment();
  uint64_t seq = ++send_seq_;
  frame.WriteU64(seq);
  const size_t sealed_at = frame.size();
  frame.Pad(crypto::kChaChaNonceSize);
  write_plaintext(frame);
  frame.Pad(crypto::kAeadTagSize);
  aead_.SealInPlace(frame.WrittenFrom(sealed_at), AssociatedData(role_, seq), rng);
}

Bytes SecureChannel::Seal(const Bytes& plaintext, crypto::SecureRng& rng) {
  Writer frame;
  frame.Reserve(kOverhead + plaintext.size());
  Seal(frame, [&plaintext](Writer& w) { w.WriteRaw(plaintext); }, rng);
  return frame.Take();
}

bool SecureChannel::OpenTo(std::span<const uint8_t> frame, std::span<uint8_t> plaintext) {
  if (frame.size() < kOverhead) {
    DETA_COUNTER("net.channel.open_rejected").Increment();
    return false;
  }
  uint64_t seq = ReadU64(frame, 0);
  if (seq <= last_accepted_) {
    DETA_COUNTER("net.channel.open_rejected").Increment();
    return false;  // replayed or superseded frame
  }
  ChannelRole sender =
      role_ == ChannelRole::kInitiator ? ChannelRole::kResponder : ChannelRole::kInitiator;
  if (!aead_.Open(frame.subspan(sizeof(uint64_t)), AssociatedData(sender, seq), plaintext)) {
    DETA_COUNTER("net.channel.open_rejected").Increment();
    return false;
  }
  last_accepted_ = seq;  // only authenticated frames advance the window
  DETA_COUNTER("net.channel.open_ok").Increment();
  return true;
}

std::optional<std::span<uint8_t>> SecureChannel::OpenInPlace(std::span<uint8_t> frame) {
  // OpenTo rejects a frame too short to hold a plaintext before reading |plaintext|.
  std::span<uint8_t> plaintext = frame.size() < kOverhead
                                     ? std::span<uint8_t>()
                                     : frame.subspan(kHeaderSize, frame.size() - kOverhead);
  if (!OpenTo(frame, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

std::optional<Bytes> SecureChannel::Open(const Bytes& frame) {
  Bytes plaintext(frame.size() < kOverhead ? 0 : frame.size() - kOverhead);
  if (!OpenTo(frame, plaintext)) {
    return std::nullopt;
  }
  return plaintext;
}

Bytes SerializeChannels(const std::map<std::string, SecureChannel>& channels) {
  Writer w;
  w.WriteU32(static_cast<uint32_t>(channels.size()));
  for (const auto& [peer, channel] : channels) {
    w.WriteString(peer);
    w.WriteBytes(channel.SerializeState());
  }
  return w.Take();
}

std::optional<std::map<std::string, SecureChannel>> RestoreChannels(const Bytes& data) {
  std::map<std::string, SecureChannel> channels;
  Reader r(data);
  uint32_t count = r.ReadU32();
  for (uint32_t i = 0; i < count; ++i) {
    std::string peer = r.ReadString();
    std::optional<SecureChannel> channel =
        SecureChannel::DeserializeState(r.ReadBytes(), kResumeSeqSlack);
    if (!channel.has_value()) {
      return std::nullopt;
    }
    channels.emplace(std::move(peer), std::move(*channel));
  }
  return channels;
}

}  // namespace deta::net
