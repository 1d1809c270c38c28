// A decentralized DeTA aggregator (§4.1): one of J instances, each confined to an SEV
// CVM, holding only a fragmentary, shuffled view of every model update. A Role
// (core/role.h): its protocol runs as message and tick handlers on the role runtime. It
// reads the job — rosters, round count, quorum, deadlines, retry policy, algorithm and
// Paillier key — from the shared JobPlan; its own are its name, its CVM and its
// durability.
//
// Roles: the plan's first aggregator is the *initiator* — it starts each training round
// by notifying the parties and the follower aggregators, and advances to the next round
// once every aggregator reports completion ("Inter-Aggregator Training
// Synchronization"). The rest are followers.
//
// The tick handler (a) retransmits round.begin, to the parties and followers not yet
// heard from this round, and round.done with capped backoff, and (b) enforces a
// per-round collection deadline — a round still missing fragments then emits a typed
// agg.failed to the observer; the runtime's idle backstop ends a node nobody talks to
// instead of letting it hang. A party whose round.result was dropped recovers
// by retransmitting its upload: uploads for an already-aggregated round are answered
// with a re-sealed copy of the cached result. The aggregator does not decide the end of
// the job: after the final round it keeps re-serving that result until the job's
// observer sends shutdown, once every party has reported the round (core/deta_job.h).
// That shutdown also acks a follower's final round.done.
//
// Everything secret the aggregator handles (its auth token, received fragments, the
// aggregated result) lives in the CVM's encrypted memory, so the breach experiments can
// dump exactly what a successful SEV exploit would expose.
#ifndef DETA_CORE_DETA_AGGREGATOR_H_
#define DETA_CORE_DETA_AGGREGATOR_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>

#include "cc/sev.h"
#include "core/auth_protocol.h"
#include "core/role.h"
#include "fl/aggregation.h"
#include "fl/paillier_fusion.h"
#include "net/retry.h"

namespace deta::core {

// Round-protocol message tags.
inline constexpr char kJobStart[] = "job.start";
inline constexpr char kJobStartAck[] = "job.start_ack";
inline constexpr char kRoundBegin[] = "round.begin";
inline constexpr char kRoundUpload[] = "round.upload";
inline constexpr char kRoundResult[] = "round.result";
inline constexpr char kRoundDone[] = "round.done";
inline constexpr char kAggReport[] = "agg.report";
inline constexpr char kAggFailed[] = "agg.failed";
inline constexpr char kShutdown[] = "shutdown";

// round.upload and round.result bodies: u32 round || u64 |frame| || frame, the frame being
// the sender's SecureChannel seal of the plaintext (a serialized fragment or result).
// SealRoundMessage builds one in one buffer: the round and the frame length are the
// seal's headroom, and |write_plaintext| appends the |plaintext_size| plaintext bytes
// where the channel then encrypts them.
Bytes SealRoundMessage(net::SecureChannel& channel, int round, size_t plaintext_size,
                       const std::function<void(net::Writer&)>& write_plaintext,
                       crypto::SecureRng& rng);
Bytes SealRoundMessage(net::SecureChannel& channel, int round, const Bytes& plaintext,
                       crypto::SecureRng& rng);
// The round a round message names; throws CheckFailure when |payload| is too short.
int RoundOf(const Bytes& payload);
// Opens a round message's frame where it lies in |payload| and returns the plaintext's
// span there; nullopt when the frame does not open. Throws CheckFailure when |payload|
// is malformed.
std::optional<std::span<uint8_t>> OpenRoundMessage(net::SecureChannel& channel,
                                                   Bytes& payload);

class DetaAggregator final : public Role {
 public:
  // The token private key is read from the CVM's encrypted memory (provisioned by the
  // attestation proxy in phase I); construction fails if the CVM was not provisioned.
  // |durability|: snapshots (after each registration and each aggregated round), resume
  // point and injected crash (when the aggregator starts collecting that round).
  DetaAggregator(const JobPlan& plan, std::string name, std::shared_ptr<cc::Cvm> cvm,
                 const RoleDurability& durability, net::Transport& transport,
                 crypto::SecureRng rng);
  ~DetaAggregator() override { Stop(); Join(); }

  // After the injected crash: the replacement on the same CVM, resuming from this
  // node's newest snapshot.
  std::unique_ptr<DetaAggregator> Revive(crypto::SecureRng rng) {
    Release();
    return std::make_unique<DetaAggregator>(plan_, name(), cvm_,
                                            state().durability().Revived(), transport(),
                                            std::move(rng));
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool Begin() override;
  void Dispatch(net::Message& m) override;
  void OnTick() override;
  // A fragment as it was received: the upload message, opened in place, and the
  // fragment's plaintext inside it. Moving the message keeps its buffer, so the span
  // stays valid for as long as the staged entry lives.
  struct StagedFragment {
    Bytes message;
    std::span<const uint8_t> plaintext;
  };

  void HandleJobStart(const net::Message& m);
  void HandleRoundBegin(const net::Message& m);
  void HandleUpload(net::Message& m);
  // False when the injected crash fired instead.
  bool StartCollecting(int round);
  void Aggregate(int round);
  void ResendResult(const std::string& party);
  void SendRoundBegin();
  void SendRoundDone();
  void MarkRoundDone(const std::string& aggregator, int round);
  // The fragments that complete a round: the quorum when one is set, else every party.
  int FragmentsNeeded() const;
  // Reports the round's staged fragments against FragmentsNeeded() and stops.
  void FailRound(int round);
  // Writes a snapshot of the durable state (round counter, result cache, channels,
  // registration cache, RNG) for completed round |round|.
  void SaveState(int round);
  bool RestoreFromSnapshot();
  bool is_initiator() const { return name() == plan_.initiator(); }
  // Collecting a round it has not aggregated yet.
  bool collecting() const { return current_round_ > last_aggregated_round_; }

  const JobPlan& plan_;
  std::shared_ptr<cc::Cvm> cvm_;
  // The auth token proves this CVM passed attestation; the Secret wrapper wipes it on
  // destruction and keeps it out of logs/telemetry/plaintext wires by construction.
  Secret<crypto::BigUint> token_private_;
  crypto::SecureRng rng_;
  std::unique_ptr<fl::AggregationAlgorithm> algorithm_;
  std::unique_ptr<fl::PaillierVectorCodec> paillier_codec_;

  RegistrationCache registrations_;
  std::map<std::string, net::SecureChannel> channels_;  // party -> channel
  // Per-round fragment staging: party -> its opened upload.
  std::map<std::string, StagedFragment> staged_;
  int current_round_ = 0;
  int last_aggregated_round_ = 0;
  Clock::time_point round_deadline_;
  // Cached result of last_aggregated_round_, re-sealed on demand for parties whose
  // round.result was lost.
  Bytes result_plain_;
  // Initiator: aggregators (including self) that completed the current round.
  std::set<std::string> done_;
  // Initiator: party -> the last round it uploaded for while that round was current,
  // staged or not. With done_, it tells whom a round.begin re-send still has to reach.
  std::map<std::string, int> upload_round_;
  // Initiator: round.begin retransmission state.
  int begin_attempts_ = 0;
  Clock::time_point next_begin_resend_;
  // Follower: round.done retransmission state (pending until acked by the next
  // round.begin or shutdown).
  bool done_pending_ = false;
  int done_round_ = 0;
  int done_attempts_ = 0;
  Clock::time_point next_done_resend_;
};

}  // namespace deta::core

#endif  // DETA_CORE_DETA_AGGREGATOR_H_
