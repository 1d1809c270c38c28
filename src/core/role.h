// What every DeTA role shares: the parties, the J aggregators and the key broker fail
// independently and talk only by messages (§4.1–4.3). Parties and aggregators act on one
// JobPlan, and each role is configured by one RoleDurability: its RoleState seals its
// secret sections, saves its snapshots after every round (an in-run revive rejoins
// losslessly only from the round before its crash) and loads the one snapshot its
// ResumePoint names (src/persist/). Role is the runtime: the endpoint, the thread behind
// Start/Stop/Join, one receive loop with one tick and the idle backstop, the injected
// crash, and the guard around every message handler. A subclass keeps only its protocol
// (Begin, Dispatch, OnTick) and its revive (Revive).
#ifndef DETA_CORE_ROLE_H_
#define DETA_CORE_ROLE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/thread.h"
#include "core/auth_protocol.h"
#include "crypto/paillier.h"
#include "fl/party.h"
#include "net/transport.h"
#include "persist/state_store.h"

namespace deta::core {

// The endpoint and role name of the job's evaluation observer.
inline constexpr char kObserver[] = "observer";

// The one job every party and aggregator acts on: DetaJob builds it once, identically in
// every process of a deployment, and each role reads it by const reference.
struct JobPlan {
  // The first aggregator is the initiator (the paper picks one at random; the first is
  // equivalent and reproducible). The first party is the reporter: it sends the observer
  // the merged global model each round.
  std::vector<std::string> aggregator_names;
  std::vector<std::string> party_names;
  int rounds = 1;
  // Aggregate as soon as this many party fragments arrive (0 = all parties); late
  // fragments for an aggregated round are dropped (stragglers, §8.2).
  int quorum = 0;
  // An aggregator's deadline for one round's uploads, from when it learns the round
  // started. Must exceed the retry policy's total budget.
  int round_timeout_ms = 10000;
  // A role gives up, with a warning, when no message arrives for this long.
  int idle_timeout_ms = 60000;
  net::RetryPolicy retry;
  std::string algorithm = "iterative_averaging";
  // Set exactly when the job uses Paillier fusion.
  std::optional<crypto::PaillierPublicKey> paillier_public;
  fl::TrainConfig train;
  // The attestation proxy's token public keys, by aggregator name.
  std::map<std::string, crypto::EcPoint> token_registry;
  crypto::EcPoint key_broker_public;

  const std::string& initiator() const { return aggregator_names.front(); }
  const std::string& reporter() const { return party_names.front(); }
};

// Where a role's state comes from when it starts: its configuration (fresh), its newest
// snapshot (an in-run revive, which skips the ready barrier because it already passed),
// or its snapshot of exactly one round (whole-job resume, which pins every role to the
// job snapshot's cut).
class ResumePoint {
 public:
  static ResumePoint Fresh() { return ResumePoint(-2); }
  static ResumePoint Newest() { return ResumePoint(-1); }
  static ResumePoint AtRound(int round) {
    DETA_CHECK_GE(round, 0);
    return ResumePoint(round);
  }

  bool fresh() const { return round_ == -2; }
  bool newest() const { return round_ == -1; }
  int round() const { return round_; }  // the pinned round of AtRound

 private:
  explicit ResumePoint(int round) : round_(round) {}
  int round_;
};

struct RoleDurability {
  // Snapshot store, owned by the job; null disables persistence.
  persist::StateStore* store = nullptr;
  // Seed for the role's snapshot sealing key (stand-in for CVM sealed storage).
  uint64_t seal_seed = 0;
  ResumePoint resume = ResumePoint::Fresh();
  // Fault injection: the role kills itself here (0 = never). Parties and aggregators
  // count rounds; the key broker counts distinct parties served.
  int crash_at = 0;

  // A revived role's: same store and seal seed, newest snapshot, no crash point.
  RoleDurability Revived() const { return {store, seal_seed, ResumePoint::Newest()}; }
};

class RoleState {
 public:
  RoleState(const RoleDurability& durability, std::string role);

  const RoleDurability& durability() const { return durability_; }

  // Persists the snapshot |fill| builds as this role's state at |round|; nothing (and no
  // call to |fill|) without a store. A failed write is logged and the role carries on.
  void Save(int round, const std::function<void(persist::Snapshot&)>& fill) const;
  // The one loader: hands |apply| the snapshot the resume point names. False when the
  // role starts fresh, no generation verifies, whole-job resume finds none at exactly its
  // round, |apply| fails, or a section it reads is malformed.
  bool Restore(const std::function<bool(const persist::Snapshot&)>& apply) const;
  // Adds |plaintext| as section |name|, sealed under the role's key.
  void AddSealed(persist::Snapshot& snapshot, persist::SectionType type,
                 const std::string& name, const Bytes& plaintext,
                 crypto::SecureRng& rng) const;
  // Section |name| opened; nullopt when it is missing or does not open.
  std::optional<Bytes> OpenSealed(const persist::Snapshot& snapshot,
                                  const std::string& name) const;

  // The session of a role parties register with (an aggregator, the key broker), sealed
  // in this order: channels, registration cache, RNG. RestoreSession, called inside
  // Restore, is false when a section is missing or does not open or parse.
  void AddSession(persist::Snapshot& snapshot,
                  const std::map<std::string, net::SecureChannel>& channels,
                  const RegistrationCache& registrations, crypto::SecureRng& rng) const;
  bool RestoreSession(const persist::Snapshot& snapshot,
                      std::map<std::string, net::SecureChannel>& channels,
                      RegistrationCache& registrations, crypto::SecureRng& rng) const;

 private:
  bool enabled() const { return durability_.store != nullptr; }

  RoleDurability durability_;
  std::string role_;
  std::optional<persist::SealKey> seal_;  // derived once, when there is a store
};

// The guard around parsing wire input: runs |handle|, and when it raises CheckFailure
// the message is malformed — it is dropped (logged, counted as
// core.role.malformed_messages) and the guard returns false.
bool DropIfMalformed(const std::string& who, const net::Message& m,
                     const std::function<void()>& handle);

class Role {
 public:
  // Every role's receive loop, and the job observer's waits, tick at most this long.
  static constexpr int kTickMs = 50;

  // A subclass's destructor must Stop() and Join() first: the loop calls its handlers.
  virtual ~Role() = default;
  Role(const Role&) = delete;  // the role's thread holds its address
  Role& operator=(const Role&) = delete;

  const std::string& name() const { return name_; }
  void Start();
  // Closes the endpoint, waking any wait (a party's mid-round wait too). Idempotent.
  void Stop();
  void Join();
  // True after the injected crash fired; the job driver then revives the role.
  bool crashed() const { return crashed_.load(); }

 protected:
  // With |idle_timeout_ms| > 0 the role gives up, with a warning, when no message
  // arrives for that long; 0 serves until Stop().
  Role(net::Transport& transport, std::string name, int idle_timeout_ms,
       const RoleDurability& durability);

  // On the role's thread before the loop; false ends the role there.
  virtual bool Begin() { return true; }
  // One message, under the guard: a malformed one is dropped and the loop carries on.
  // The handler owns |m| and may consume it: an aggregator opens an upload in place and
  // keeps its buffer.
  virtual void Dispatch(net::Message& m) = 0;
  // After every message and every quiet tick.
  virtual void OnTick() {}

  net::Endpoint& endpoint() { return *endpoint_; }
  net::Transport& transport() { return transport_; }
  const RoleState& state() const { return state_; }
  // Ends the loop once the running handler returns.
  void Finish() { finished_ = true; }
  // The injected crash: dies as a process killed |where| would (the endpoint closes and
  // the loop ends) and counts persist.crash.injected.
  void Crash(const std::string& where);
  // For Revive: joins the thread and frees the endpoint name for the replacement.
  void Release();

 private:
  void Run();

  net::Transport& transport_;
  std::string name_;
  int idle_timeout_ms_;
  RoleState state_;
  std::unique_ptr<net::Endpoint> endpoint_;
  bool finished_ = false;
  std::atomic<bool> crashed_{false};
  ServiceThread thread_;
};

}  // namespace deta::core

#endif  // DETA_CORE_ROLE_H_
