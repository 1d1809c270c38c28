#include "persist/codec.h"

#include "common/check.h"
#include "common/telemetry.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "net/codec.h"

namespace deta::persist {

namespace {
constexpr char kMagic[] = "DETA-SNAP";
// v2: sealed sections are ChaCha20-Poly1305 frames. A v1 snapshot (ChaCha20 +
// HMAC-SHA256 sections) is rejected as an unknown version, not as tampering.
constexpr uint32_t kVersion = 2;
// Associated data binding sealed sections to this codec version; a sealed blob lifted
// into a different context fails authentication.
constexpr char kSealContext[] = "deta-persist-section-v2";
}  // namespace

const char* SectionTypeName(SectionType type) {
  switch (type) {
    case SectionType::kRaw:
      return "raw";
    case SectionType::kModelParams:
      return "model_params";
    case SectionType::kKeyMaterial:
      return "key_material";
    case SectionType::kRngState:
      return "rng_state";
    case SectionType::kTrainerState:
      return "trainer_state";
    case SectionType::kChannelState:
      return "channel_state";
    case SectionType::kRegistrationCache:
      return "registration_cache";
  }
  return "unknown";
}

void Snapshot::Add(SectionType type, const std::string& name, Bytes data) {
  sections.push_back(Section{type, name, std::move(data)});
}

void Snapshot::AddFloats(SectionType type, const std::string& name,
                         const std::vector<float>& values) {
  net::Writer w;
  w.WriteFloatVector(values);
  Add(type, name, w.Take());
}

const Section* Snapshot::Find(const std::string& name) const {
  for (const Section& s : sections) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

std::optional<std::vector<float>> Snapshot::FindFloats(const std::string& name) const {
  const Section* s = Find(name);
  if (s == nullptr) {
    return std::nullopt;
  }
  try {
    net::Reader r(s->data);
    std::vector<float> values = r.ReadFloatVector();
    if (!r.AtEnd()) {
      return std::nullopt;
    }
    return values;
  } catch (const CheckFailure&) {
    return std::nullopt;
  }
}

Bytes SerializeSnapshot(const Snapshot& snapshot) {
  net::Writer w;
  w.WriteString(kMagic);
  w.WriteU32(kVersion);
  w.WriteString(snapshot.role);
  w.WriteU64(snapshot.generation);
  w.WriteU32(static_cast<uint32_t>(snapshot.round));
  w.WriteU32(static_cast<uint32_t>(snapshot.sections.size()));
  for (const Section& s : snapshot.sections) {
    w.WriteU32(static_cast<uint32_t>(s.type));
    w.WriteString(s.name);
    w.WriteBytes(s.data);
  }
  Bytes body = w.Take();
  Bytes digest = crypto::Sha256Digest(body);
  net::Writer framed;
  framed.WriteBytes(body);
  framed.WriteBytes(digest);
  return framed.Take();
}

std::optional<Snapshot> ParseSnapshot(const Bytes& blob) {
  try {
    net::Reader framed(blob);
    Bytes body = framed.ReadBytes();
    Bytes digest = framed.ReadBytes();
    if (!framed.AtEnd()) {
      return std::nullopt;  // trailing garbage — not a cleanly written snapshot
    }
    if (!ConstantTimeEqual(digest, crypto::Sha256Digest(body))) {
      return std::nullopt;
    }
    net::Reader r(body);
    if (r.ReadString() != kMagic) {
      return std::nullopt;
    }
    if (r.ReadU32() != kVersion) {
      return std::nullopt;
    }
    Snapshot snapshot;
    snapshot.role = r.ReadString();
    snapshot.generation = r.ReadU64();
    snapshot.round = static_cast<int>(r.ReadU32());
    uint32_t count = r.ReadU32();
    for (uint32_t i = 0; i < count; ++i) {
      Section s;
      s.type = static_cast<SectionType>(r.ReadU32());
      s.name = r.ReadString();
      s.data = r.ReadBytes();
      snapshot.sections.push_back(std::move(s));
    }
    if (!r.AtEnd()) {
      return std::nullopt;
    }
    return snapshot;
  } catch (const CheckFailure&) {
    return std::nullopt;  // truncated / malformed framing
  }
}

SealKey SealKey::Derive(uint64_t job_seed, const std::string& role) {
  Bytes ikm = StringToBytes("deta-persist-seal-v1");
  AppendU64(ikm, job_seed);
  Bytes master = crypto::Hkdf(StringToBytes("deta-persist"), ikm, StringToBytes(role),
                              crypto::kChaChaKeySize);
  return SealKey(master);
}

Bytes SealKey::Seal(const Bytes& plaintext, crypto::SecureRng& rng) const {
  return aead_.Seal(plaintext, StringToBytes(kSealContext), rng);
}

std::optional<Bytes> SealKey::Open(const Bytes& sealed) const {
  return aead_.Open(sealed, StringToBytes(kSealContext));
}

}  // namespace deta::persist
