// A DeTA training party: wraps the baseline fl::Party local trainer with the full DeTA
// life cycle of Figure 1 — fetch the transform material and any Paillier key from the
// trusted key broker (or restore them from its own sealed snapshot), verify every
// aggregator (phase II challenge/response), register and establish secure channels,
// then per round: local train, Trans (partition + shuffle), sealed upload to each
// aggregator, collect aggregated fragments, Trans^-1 (un-shuffle + merge), and
// synchronize the local model. Runs as a real thread.
//
// Fault tolerance: every wait is bounded. Uploads are retransmitted (re-sealed, so the
// channel replay window accepts them) to any aggregator whose result has not arrived;
// an aggregator that stays silent all the way to the collection deadline causes the
// party to *skip* the round — params stay at the last synchronized state, the observer
// is told via party.round_skipped, and the party keeps participating — rather than
// aborting the job.
#ifndef DETA_CORE_DETA_PARTY_H_
#define DETA_CORE_DETA_PARTY_H_

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/thread.h"
#include "core/deta_aggregator.h"
#include "core/key_broker.h"
#include "core/transform.h"
#include "fl/party.h"
#include "net/retry.h"
#include "persist/state_store.h"

namespace deta::core {

inline constexpr char kPartyReady[] = "party.ready";
inline constexpr char kPartyTiming[] = "party.timing";
inline constexpr char kPartyReport[] = "party.report";
inline constexpr char kPartyRoundSkipped[] = "party.round_skipped";

struct DetaPartyConfig {
  std::vector<std::string> aggregator_names;
  // Token public keys from the attestation proxy's registry, keyed by aggregator name.
  std::map<std::string, crypto::EcPoint> token_registry;
  std::string observer;
  // Exactly one party per job uploads the merged global parameters to the observer each
  // round for evaluation (they are identical across parties).
  bool is_reporter = false;
  fl::TrainConfig train;
  // Paillier fusion: the key pair arrives inside the key-broker material.
  bool use_paillier = false;
  int num_parties = 1;
  // Starting global parameters; identical across all parties of a job.
  std::vector<float> initial_params;
  // Identity of the trusted key broker the party fetches its transform material
  // (permutation key, mapper seed, Paillier key) from during setup.
  crypto::EcPoint key_broker_public;
  // Total rounds in the job; after the final round the party exits on its own, so a
  // dropped shutdown message cannot strand it (0 = exit only on shutdown/idle timeout).
  int rounds = 0;
  // Retransmission pacing for setup handshakes and per-round uploads.
  net::RetryPolicy retry;
  // Backstop: exit (with a warning) when no message arrives for this long between rounds.
  int idle_timeout_ms = 60000;

  // --- durability (src/persist/) ---
  // Snapshot store, owned by the job; null disables persistence.
  persist::StateStore* store = nullptr;
  // Snapshot cadence (every Nth completed round; the post-setup state is always saved).
  int checkpoint_every = 1;
  // Restore from the newest verifiable snapshot before setup. Setup fails if none loads.
  bool resume = false;
  // With resume: require the restored snapshot to be for exactly this round (>= 0).
  // Whole-job resume uses this to pin every role to one consistent cut; -1 = newest.
  int resume_max_round = -1;
  // Send the kPartyReady barrier message (disabled for in-run revives: the barrier
  // already completed and the observer is no longer listening for it).
  bool announce_ready = true;
  // Fault injection: kill this party when round |crash_at_round| begins (0 = never).
  int crash_at_round = 0;
  // Seed for the snapshot sealing key (stand-in for CVM sealed storage; job-provided).
  uint64_t seal_seed = 0;
};

class DetaParty {
 public:
  DetaParty(std::unique_ptr<fl::Party> local, DetaPartyConfig config,
            net::Transport& transport, crypto::SecureRng rng);
  ~DetaParty();

  DetaParty(const DetaParty&) = delete;
  DetaParty& operator=(const DetaParty&) = delete;

  void Start();
  void Join();
  // Closes the party's mailbox, waking any in-flight wait (including mid-round result
  // collection, which a queued shutdown message cannot interrupt). Used by the job's
  // failure paths; on the happy path the party exits on its own after the final round.
  void Shutdown() { endpoint_->Close(); }

  const std::string& name() const { return name_; }
  // True once the setup phase (verification + registration) succeeded.
  bool setup_ok() const { return setup_ok_; }
  const std::vector<float>& final_params() const { return global_params_; }

  // True after an injected crash fault fired; the job driver polls this and revives the
  // party from its latest snapshot.
  bool crashed() const { return crashed_.load(); }
  // Releases the local trainer so a revived replacement party can own it (its durable
  // iteration state is restored from the snapshot anyway; handing the object over avoids
  // re-partitioning the dataset). Call only after Join().
  std::unique_ptr<fl::Party> TakeLocal() { return std::move(local_); }

 private:
  void Run();
  bool SetupChannels();
  void RunRound(int round);
  // Writes a snapshot for completed round |round| (respects checkpoint_every).
  void SaveState(int round);
  // Restores params/trainer/rng/material from the store; false when nothing verifiable
  // matches the configured resume point.
  bool RestoreFromSnapshot();
  // Takes broker-served material, after a fetch or a restore: builds the transform,
  // checks its partition count and, with Paillier fusion, parses the key and builds the
  // codec. False when the material does not fit this job.
  bool AdoptMaterial(TransformMaterial material);

  std::unique_ptr<fl::Party> local_;
  std::string name_;
  DetaPartyConfig config_;
  std::shared_ptr<const Transform> transform_;
  net::Transport& transport_;
  std::unique_ptr<net::Endpoint> endpoint_;
  crypto::SecureRng rng_;
  // Parsed from material_; paillier_codec_ holds a reference to its public key.
  std::optional<crypto::PaillierKeyPair> paillier_;
  std::unique_ptr<fl::PaillierVectorCodec> paillier_codec_;

  std::map<std::string, net::SecureChannel> channels_;  // aggregator -> channel
  std::vector<float> global_params_;
  // Broker-served transform material, retained (and snapshotted sealed) so a resumed
  // party can rebuild its transform, and recover its Paillier key, without a live
  // broker.
  TransformMaterial material_;
  int resume_round_ = 0;
  bool setup_ok_ = false;
  std::atomic<bool> crashed_{false};
  ServiceThread thread_;
};

}  // namespace deta::core

#endif  // DETA_CORE_DETA_PARTY_H_
