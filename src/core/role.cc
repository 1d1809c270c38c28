#include "core/role.h"

#include <chrono>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace deta::core {

RoleState::RoleState(const RoleDurability& durability, std::string role)
    : durability_(durability), role_(std::move(role)) {
  if (enabled()) {
    seal_.emplace(persist::SealKey::Derive(durability_.seal_seed, role_));
  }
}

void RoleState::Save(int round,
                     const std::function<void(persist::Snapshot&)>& fill) const {
  if (!enabled()) {
    return;
  }
  persist::Snapshot snapshot;
  snapshot.role = role_;
  snapshot.round = round;
  fill(snapshot);
  if (!durability_.store->Write(snapshot)) {
    LOG_WARNING << role_ << ": snapshot write failed for round " << round;
  }
}

bool RoleState::Restore(
    const std::function<bool(const persist::Snapshot&)>& apply) const {
  const ResumePoint& resume = durability_.resume;
  if (!enabled() || resume.fresh()) {
    return false;
  }
  std::optional<persist::Snapshot> snapshot =
      resume.newest() ? durability_.store->Load(role_)
                      : durability_.store->LoadAt(role_, resume.round());
  if (!snapshot.has_value()) {
    return false;
  }
  if (!resume.newest() && snapshot->round != resume.round()) {
    // An older generation would silently rewind this role against the rest of the
    // federation, which resumes at the job snapshot's round.
    LOG_WARNING << role_ << ": no snapshot at round " << resume.round();
    return false;
  }
  LOG_INFO << role_ << ": resuming from snapshot at round " << snapshot->round
           << " (generation " << snapshot->generation << ")";
  try {
    return apply(*snapshot);
  } catch (const CheckFailure&) {
    return false;
  }
}

void RoleState::AddSealed(persist::Snapshot& snapshot, persist::SectionType type,
                          const std::string& name, const Bytes& plaintext,
                          crypto::SecureRng& rng) const {
  snapshot.Add(type, name, seal_->Seal(plaintext, rng));
}

std::optional<Bytes> RoleState::OpenSealed(const persist::Snapshot& snapshot,
                                           const std::string& name) const {
  const persist::Section* section = snapshot.Find(name);
  return section != nullptr ? seal_->Open(section->data) : std::nullopt;
}

void RoleState::AddSession(persist::Snapshot& snapshot,
                           const std::map<std::string, net::SecureChannel>& channels,
                           const RegistrationCache& registrations,
                           crypto::SecureRng& rng) const {
  AddSealed(snapshot, persist::SectionType::kChannelState, "channels",
            net::SerializeChannels(channels), rng);
  AddSealed(snapshot, persist::SectionType::kRegistrationCache, "registrations",
            registrations.Serialize(), rng);
  AddSealed(snapshot, persist::SectionType::kRngState, "rng", rng.SerializeState(), rng);
}

bool RoleState::RestoreSession(const persist::Snapshot& snapshot,
                               std::map<std::string, net::SecureChannel>& channels,
                               RegistrationCache& registrations,
                               crypto::SecureRng& rng) const {
  std::optional<Bytes> channels_plain = OpenSealed(snapshot, "channels");
  std::optional<Bytes> registrations_plain = OpenSealed(snapshot, "registrations");
  std::optional<Bytes> rng_plain = OpenSealed(snapshot, "rng");
  std::optional<std::map<std::string, net::SecureChannel>> restored =
      channels_plain.has_value() ? net::RestoreChannels(*channels_plain) : std::nullopt;
  if (!restored.has_value() || !registrations_plain.has_value() || !rng_plain.has_value() ||
      !registrations.Deserialize(*registrations_plain) || !rng.RestoreState(*rng_plain)) {
    return false;
  }
  channels = std::move(*restored);
  return true;
}

bool DropIfMalformed(const std::string& who, const net::Message& m,
                     const std::function<void()>& handle) {
  try {
    handle();
    return true;
  } catch (const CheckFailure& e) {
    DETA_COUNTER("core.role.malformed_messages").Increment();
    LOG_WARNING << who << ": dropping malformed " << m.type << " from " << m.from << " ("
                << e.what() << ")";
    return false;
  }
}

Role::Role(net::Transport& transport, std::string name, int idle_timeout_ms,
           const RoleDurability& durability)
    : transport_(transport),
      name_(std::move(name)),
      idle_timeout_ms_(idle_timeout_ms),
      state_(durability, name_),
      endpoint_(transport_.CreateEndpoint(name_)) {}

void Role::Start() {
  thread_ = ServiceThread([this] { Run(); });
}

void Role::Stop() {
  if (endpoint_ != nullptr) {
    endpoint_->Close();
  }
}

void Role::Join() { thread_.Join(); }

void Role::Release() {
  Join();
  endpoint_.reset();
}

void Role::Crash(const std::string& where) {
  LOG_WARNING << name_ << ": injected crash " << where;
  DETA_COUNTER("persist.crash.injected").Increment();
  crashed_.store(true);
  endpoint_->Close();
  Finish();
}

void Role::Run() {
  if (!Begin()) {
    return;
  }
  using Clock = std::chrono::steady_clock;
  const auto idle = std::chrono::milliseconds(idle_timeout_ms_);
  Clock::time_point idle_deadline = Clock::now() + idle;
  while (!finished_) {
    std::optional<net::Message> m = endpoint_->ReceiveFor(kTickMs);
    if (m.has_value()) {
      DropIfMalformed(name_, *m, [&] { Dispatch(*m); });
      // Silence counts from the end of the handler: a party's round can outlast it.
      idle_deadline = Clock::now() + idle;
    } else if (endpoint_->closed()) {
      return;
    }
    if (!finished_) {
      OnTick();
    }
    if (!finished_ && idle_timeout_ms_ > 0 && Clock::now() >= idle_deadline) {
      LOG_WARNING << name_ << ": no traffic for " << idle_timeout_ms_ << "ms — giving up";
      Finish();
    }
  }
}

}  // namespace deta::core
