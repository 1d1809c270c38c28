// A DeTA training party: wraps the baseline fl::Party local trainer with the full DeTA
// life cycle of Figure 1 — fetch the transform material and any Paillier key from the
// trusted key broker (or restore them from its own sealed snapshot), verify every
// aggregator (phase II challenge/response), register and establish secure channels,
// then per round: local train, Trans (partition + shuffle), sealed upload to each
// aggregator, collect aggregated fragments, Trans^-1 (un-shuffle + merge), and
// synchronize the local model. A Role (core/role.h): setup runs before the role loop,
// and each round.begin runs one blocking round. It reads the job — rosters, round count,
// retry policy, training config, token registry and the broker's key — from the shared
// JobPlan; its own are its trainer, its starting parameters and its durability. The
// plan's first party is the reporter, and with Paillier fusion the party takes the key
// pair from the broker's material.
//
// Fault tolerance: every wait is bounded. Uploads are retransmitted (re-sealed, so the
// channel replay window accepts them) to any aggregator whose result has not arrived;
// an aggregator that stays silent all the way to the collection deadline causes the
// party to *skip* the round — params stay at the last synchronized state, the observer
// is told via party.round_skipped, and the party keeps participating — rather than
// aborting the job.
//
// A party ends itself once the plan's final round has run (a resumed party with no
// round left, right after setup) and tells nobody. The aggregators stay up until the
// job's observer has every party's report of the final round (core/deta_job.h), so a
// party whose final result was lost can still have it re-served.
#ifndef DETA_CORE_DETA_PARTY_H_
#define DETA_CORE_DETA_PARTY_H_

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/deta_aggregator.h"
#include "core/key_broker.h"
#include "core/role.h"
#include "core/transform.h"
#include "fl/party.h"
#include "net/retry.h"

namespace deta::core {

inline constexpr char kPartyReady[] = "party.ready";
inline constexpr char kPartyTiming[] = "party.timing";
inline constexpr char kPartyReport[] = "party.report";
inline constexpr char kPartyRoundSkipped[] = "party.round_skipped";

class DetaParty final : public Role {
 public:
  // |initial_params|: the job's starting global parameters (a resuming party takes its
  // snapshot's instead). |durability|: snapshots, resume point and injected crash; a
  // party resumed at its newest snapshot is an in-run revive and skips the ready
  // barrier, which already passed.
  DetaParty(const JobPlan& plan, std::unique_ptr<fl::Party> local,
            std::vector<float> initial_params, const RoleDurability& durability,
            net::Transport& transport, crypto::SecureRng rng);
  ~DetaParty() override { Stop(); Join(); }

  // True once the setup phase (verification + registration) succeeded.
  bool setup_ok() const { return setup_ok_; }
  const std::vector<float>& final_params() const { return global_params_; }

  // After the injected crash: the replacement, resuming from this party's newest
  // snapshot (which skips the ready barrier: it already passed). It takes over the local
  // trainer, whose iteration state the snapshot restores; re-partitioning is avoided.
  std::unique_ptr<DetaParty> Revive(crypto::SecureRng rng) {
    Release();
    return std::make_unique<DetaParty>(plan_, std::move(local_), std::vector<float>(),
                                       state().durability().Revived(), transport(),
                                       std::move(rng));
  }

 private:
  // Setup: restore or fetch the material, verify and register, report ready.
  bool Begin() override;
  void Dispatch(net::Message& m) override;
  // Ends the role once the plan's final round has run (or was skipped): the observer
  // already has the party's report, and nobody sends a finished party anything.
  void OnTick() override;
  bool SetupChannels();
  void RunRound(int round);
  // Writes a snapshot for completed round |round|.
  void SaveState(int round);
  // Restores params/trainer/rng/material from the store; false when nothing verifiable
  // matches the configured resume point.
  bool RestoreFromSnapshot();
  // Takes broker-served material, after a fetch or a restore: builds the transform,
  // checks its partition count and, with Paillier fusion, parses the key and builds the
  // codec. False when the material does not fit this job.
  bool AdoptMaterial(TransformMaterial material);

  const JobPlan& plan_;
  std::unique_ptr<fl::Party> local_;
  std::shared_ptr<const Transform> transform_;
  crypto::SecureRng rng_;
  // Parsed from material_; paillier_codec_ holds a reference to its public key.
  std::optional<crypto::PaillierKeyPair> paillier_;
  std::unique_ptr<fl::PaillierVectorCodec> paillier_codec_;

  std::map<std::string, net::SecureChannel> channels_;  // aggregator -> channel
  std::vector<float> global_params_;
  // Round buffers kept across rounds, so a round reuses their pages: Trans's fragments,
  // its shuffle's working space, and the merged gradient under FedSGD.
  std::vector<std::vector<float>> fragments_;
  std::vector<float> shuffle_scratch_;
  std::vector<float> merged_;
  // Broker-served transform material, retained (and snapshotted sealed) so a resumed
  // party can rebuild its transform, and recover its Paillier key, without a live
  // broker.
  TransformMaterial material_;
  // The last round this party ran (or skipped), or its snapshot's round on resume.
  int last_round_ = 0;
  bool setup_ok_ = false;
};

}  // namespace deta::core

#endif  // DETA_CORE_DETA_PARTY_H_
