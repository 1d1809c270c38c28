// A decentralized DeTA aggregator (§4.1): one of J instances, each confined to an SEV
// CVM, holding only a fragmentary, shuffled view of every model update. A Role
// (core/role.h): its protocol runs as message and tick handlers on the role runtime.
//
// Roles: one aggregator is the *initiator* — it starts each training round by notifying
// the parties and the follower aggregators, and advances to the next round once every
// aggregator reports completion ("Inter-Aggregator Training Synchronization"). The rest
// are followers.
//
// The tick handler (a) retransmits round.begin, to the parties and followers not yet
// heard from this round, and round.done with capped backoff, and (b) enforces a
// per-round collection deadline — a round still missing fragments then emits a typed
// agg.failed to the observer; the runtime's idle backstop ends a node nobody talks to
// instead of letting it hang. A party whose round.result was dropped recovers
// by retransmitting its upload: uploads for an already-aggregated round are answered
// with a re-sealed copy of the cached result.
//
// Everything secret the aggregator handles (its auth token, received fragments, the
// aggregated result) lives in the CVM's encrypted memory, so the breach experiments can
// dump exactly what a successful SEV exploit would expose.
#ifndef DETA_CORE_DETA_AGGREGATOR_H_
#define DETA_CORE_DETA_AGGREGATOR_H_

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>
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
// Sent by each party to every aggregator when it exits; lets aggregators stop draining
// early instead of waiting out the drain quiet period.
inline constexpr char kPartyDone[] = "party.done";
inline constexpr char kShutdown[] = "shutdown";

// The rosters decide the round protocol: the first aggregator is the initiator, and a
// round needs a fragment from every party (or |quorum| of them).
struct AggregatorConfig {
  std::string name;
  int rounds = 1;
  // Aggregate as soon as this many party fragments arrive (0 = wait for all parties).
  // Late fragments for an already-aggregated round are dropped — tolerates stragglers in
  // the asynchronous-training setting §8.2 discusses.
  int quorum = 0;
  // Deadline for collecting one round's uploads, measured from when this aggregator
  // learns the round started. Must exceed the retry policy's total budget or parties
  // lose their retransmission window.
  int round_timeout_ms = 10000;
  // Backstop: exit (with a warning) if no message arrives for this long.
  int idle_timeout_ms = 60000;
  // Retransmission pacing for round.begin / round.done.
  net::RetryPolicy retry;
  std::string algorithm = "iterative_averaging";
  // Paillier fusion, when set: aggregate ciphertexts homomorphically.
  std::optional<crypto::PaillierPublicKey> paillier_public;
  // Observer endpoint for timing reports (empty = no reports).
  std::string observer;
  std::vector<std::string> party_names;
  std::vector<std::string> aggregator_names;
  // Snapshots (after each registration and each aggregated round), resume point and
  // injected crash (when the aggregator starts collecting that round).
  RoleDurability durability;
};

class DetaAggregator final : public Role {
 public:
  // The token private key is read from the CVM's encrypted memory (provisioned by the
  // attestation proxy in phase I); construction fails if the CVM was not provisioned.
  DetaAggregator(AggregatorConfig config, net::Transport& transport,
                 std::shared_ptr<cc::Cvm> cvm, crypto::SecureRng rng);
  ~DetaAggregator() override { Stop(); Join(); }

  // After the injected crash: the replacement on the same CVM, resuming from this
  // node's newest snapshot.
  std::unique_ptr<DetaAggregator> Revive(crypto::SecureRng rng) {
    Release();
    config_.durability = config_.durability.Revived();
    return std::make_unique<DetaAggregator>(std::move(config_), transport(), cvm_,
                                            std::move(rng));
  }

 private:
  using Clock = std::chrono::steady_clock;

  bool Begin() override;
  void Dispatch(const net::Message& m) override;
  void OnTick() override;
  void HandleJobStart(const net::Message& m);
  void HandleRoundBegin(const net::Message& m);
  void HandleUpload(const net::Message& m);
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
  void StartDraining();
  // Writes a snapshot of the durable state (round counter, result cache, channels,
  // registration cache, RNG) for completed round |round|.
  void SaveState(int round);
  bool RestoreFromSnapshot();
  bool is_initiator() const { return config_.name == config_.aggregator_names.front(); }

  AggregatorConfig config_;
  std::shared_ptr<cc::Cvm> cvm_;
  // The auth token proves this CVM passed attestation; the Secret wrapper wipes it on
  // destruction and keeps it out of logs/telemetry/plaintext wires by construction.
  Secret<crypto::BigUint> token_private_;
  crypto::SecureRng rng_;
  std::unique_ptr<fl::AggregationAlgorithm> algorithm_;
  std::unique_ptr<fl::PaillierVectorCodec> paillier_codec_;

  RegistrationCache registrations_;
  std::map<std::string, net::SecureChannel> channels_;  // party -> channel
  // Per-round fragment staging: party -> serialized fragment payload.
  std::map<std::string, Bytes> staged_;
  int current_round_ = 0;
  int last_aggregated_round_ = 0;
  bool collecting_ = false;
  Clock::time_point round_deadline_;
  // Cached result of the last aggregated round, re-sealed on demand for parties whose
  // round.result was lost.
  int result_round_ = 0;
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
  // Post-final-round drain state: still serving cached results, exiting once every
  // party confirmed completion or the mailbox has been quiet long enough.
  bool draining_ = false;
  Clock::time_point drain_deadline_;
  std::set<std::string> done_parties_;
};

}  // namespace deta::core

#endif  // DETA_CORE_DETA_AGGREGATOR_H_
