// Versioned, self-describing snapshot codec for durable role state (checkpoint/resume).
//
// A Snapshot is the unit of persistence: one role's complete resumable state at one
// round, as a list of typed, named sections. The wire format is a single framed blob —
// body || SHA-256(body) — so any torn write, bit flip, or truncation is detected before
// a single section is trusted (ParseSnapshot never returns partially-valid state).
//
// Confidentiality: sections that hold key material (transform permutation keys, secure
// channel master secrets, CSPRNG states, registration caches) are sealed with an AEAD
// under a role-bound SealKey before they enter the snapshot, so what reaches disk is
// ciphertext. SealKey::Derive is the simulation stand-in for a CVM's sealed-storage key
// (derived from platform measurement + job identity in a real SEV deployment); model
// parameters and trainer order state are not secret from the role itself and stay
// plaintext. See DESIGN.md "Durability & resume" for the full sealed-vs-plaintext table.
#ifndef DETA_PERSIST_CODEC_H_
#define DETA_PERSIST_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/aead.h"

namespace deta::persist {

// What a section holds. The type is advisory self-description (tools can tell key
// material from bulk floats without knowing the role); lookup is by name.
enum class SectionType : uint32_t {
  kRaw = 0,
  kModelParams = 1,
  kKeyMaterial = 3,
  kRngState = 4,
  kTrainerState = 5,
  kChannelState = 6,
  kRegistrationCache = 7,
};

const char* SectionTypeName(SectionType type);

struct Section {
  SectionType type = SectionType::kRaw;
  std::string name;
  Bytes data;
};

struct Snapshot {
  std::string role;        // endpoint / role name this state belongs to
  uint64_t generation = 0; // assigned by StateStore::Write, monotonic per role
  int round = 0;           // last round fully reflected by this state
  std::vector<Section> sections;

  void Add(SectionType type, const std::string& name, Bytes data);
  void AddFloats(SectionType type, const std::string& name,
                 const std::vector<float>& values);
  // nullptr when no section has this name.
  const Section* Find(const std::string& name) const;
  std::optional<std::vector<float>> FindFloats(const std::string& name) const;
};

// Serializes magic + version + header + sections, framed with a SHA-256 digest over the
// whole body.
Bytes SerializeSnapshot(const Snapshot& snapshot);

// Parses and verifies a snapshot blob. nullopt if the frame is truncated or malformed,
// the digest does not match, the magic/version is unknown, or any section is bad —
// a snapshot is either fully verified or rejected whole.
std::optional<Snapshot> ParseSnapshot(const Bytes& blob);

// Role-bound sealing key for the secret sections of a snapshot. Deterministically
// derived (HKDF) from the job seed and the role name: the revived role — and only a
// role holding the same job identity — can re-derive it and open its own sections.
class SealKey {
 public:
  static SealKey Derive(uint64_t job_seed, const std::string& role);

  Bytes Seal(const Bytes& plaintext, crypto::SecureRng& rng) const;
  // nullopt when the ciphertext was tampered with or sealed under a different role/job.
  std::optional<Bytes> Open(const Bytes& sealed) const;

 private:
  explicit SealKey(const Bytes& master_key) : aead_(master_key) {}
  // Aead wipes its own key schedule on destruction, so SealKey needs no destructor of
  // its own.
  crypto::Aead aead_;
};

}  // namespace deta::persist

#endif  // DETA_PERSIST_CODEC_H_
