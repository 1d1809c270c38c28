// How a DeTA role — party, aggregator or key broker — persists, restores and is revived
// (src/persist/). A role is configured by one RoleDurability and holds one RoleState built
// from it, which seals the role's secret sections under its key, saves its snapshots after
// every round (an in-run revive rejoins losslessly only from the round before its crash),
// and loads the one snapshot the resume point names.
#ifndef DETA_CORE_ROLE_STATE_H_
#define DETA_CORE_ROLE_STATE_H_

#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/check.h"
#include "core/auth_protocol.h"
#include "persist/state_store.h"

namespace deta::core {

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

}  // namespace deta::core

#endif  // DETA_CORE_ROLE_STATE_H_
