#include "cc/sev.h"

#include "common/check.h"
#include "common/logging.h"
#include "crypto/aead.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "net/codec.h"

namespace deta::cc {

namespace {

const crypto::Secp256k1& Curve() { return crypto::Secp256k1::Instance(); }

}  // namespace

bool CertChain::Verify(const crypto::EcPoint& trusted_root) const {
  if (!(ark_public == trusted_root)) {
    return false;
  }
  if (!crypto::EcdsaVerify(ark_public, Curve().Encode(ask_public), ark_signature_on_ask)) {
    return false;
  }
  return crypto::EcdsaVerify(ask_public, Curve().Encode(pek_public), ask_signature_on_pek);
}

Bytes AttestationReport::Body() const {
  net::Writer w;
  w.WriteString(platform_id);
  w.WriteBytes(measurement);
  w.WriteBytes(nonce);
  w.WriteBytes(Curve().Encode(chain.pek_public));
  return w.Take();
}

Cvm::Cvm(std::string id, Bytes measurement, std::array<uint8_t, crypto::kChaChaKeySize> vek)
    : id_(std::move(id)), measurement_(std::move(measurement)), vek_(vek) {}

Bytes Cvm::EncryptRegion(const std::string& region, std::span<const uint8_t> plaintext) const {
  // Region name -> deterministic per-region nonce (models the ASID/C-bit page tagging;
  // regions are whole-value replaced, so nonce reuse across writes is not a concern for
  // the simulation's threat model).
  Bytes nonce_seed = crypto::Sha256Digest(StringToBytes("vek-nonce:" + region));
  std::array<uint8_t, crypto::kChaChaNonceSize> nonce;
  std::copy(nonce_seed.begin(), nonce_seed.begin() + crypto::kChaChaNonceSize, nonce.begin());
  Bytes ciphertext(plaintext.size());
  crypto::ChaCha20Xor(vek_, nonce, 0, plaintext, ciphertext);
  return ciphertext;
}

Bytes Cvm::DecryptRegion(const std::string& region, const Bytes& ciphertext) const {
  return EncryptRegion(region, ciphertext);  // XOR stream cipher: symmetric
}

void Cvm::GuestWrite(const std::string& region, std::span<const uint8_t> plaintext) {
  DETA_CHECK_MSG(state_ == State::kRunning, "guest write on non-running CVM");
  encrypted_memory_[region] = EncryptRegion(region, plaintext);
}

void Cvm::GuestErase(const std::string& region) {
  DETA_CHECK_MSG(state_ == State::kRunning, "guest erase on non-running CVM");
  encrypted_memory_.erase(region);
}

std::optional<Bytes> Cvm::GuestRead(const std::string& region) const {
  if (state_ != State::kRunning) {
    return std::nullopt;
  }
  auto it = encrypted_memory_.find(region);
  if (it == encrypted_memory_.end()) {
    return std::nullopt;
  }
  return DecryptRegion(region, it->second);
}

std::optional<Bytes> Cvm::HypervisorRead(const std::string& region) const {
  auto it = encrypted_memory_.find(region);
  if (it == encrypted_memory_.end()) {
    return std::nullopt;
  }
  return it->second;  // ciphertext: this is all a rogue host admin can see
}

std::map<std::string, Bytes> Cvm::Breach() const {
  std::map<std::string, Bytes> plaintext;
  for (const auto& [region, ciphertext] : encrypted_memory_) {
    plaintext[region] = DecryptRegion(region, ciphertext);
  }
  return plaintext;
}

RemoteAttestationService::RemoteAttestationService(crypto::SecureRng& rng)
    : ark_(crypto::GenerateEcKey(rng)), ask_(crypto::GenerateEcKey(rng)) {
  ark_signature_on_ask_ = crypto::EcdsaSign(ark_.private_key, Curve().Encode(ask_.public_key));
}

CertChain RemoteAttestationService::IssuePlatformChain(const crypto::EcPoint& pek_public) {
  CertChain chain;
  chain.ark_public = ark_.public_key;
  chain.ask_public = ask_.public_key;
  chain.ark_signature_on_ask = ark_signature_on_ask_;
  chain.pek_public = pek_public;
  chain.ask_signature_on_pek =
      crypto::EcdsaSign(ask_.private_key, Curve().Encode(pek_public));
  return chain;
}

SevPlatform::SevPlatform(std::string platform_id, RemoteAttestationService& ras,
                         crypto::SecureRng& rng)
    : platform_id_(std::move(platform_id)),
      pek_(crypto::GenerateEcKey(rng)),
      transport_(crypto::GenerateEcKey(rng)),
      rng_(rng.NextBytes(32)) {
  chain_ = ras.IssuePlatformChain(pek_.public_key);
}

std::shared_ptr<Cvm> SevPlatform::LaunchPausedCvm(const std::string& cvm_id,
                                                  const Bytes& image) {
  Bytes measurement = crypto::Sha256Digest(image);
  auto vek = rng_.NextArray<crypto::kChaChaKeySize>();
  LOG_INFO << "platform " << platform_id_ << ": launched paused CVM " << cvm_id
           << " measurement=" << ToHex(measurement).substr(0, 16) << "...";
  return std::shared_ptr<Cvm>(new Cvm(cvm_id, std::move(measurement), vek));
}

AttestationReport SevPlatform::GenerateReport(const Cvm& cvm, const Bytes& nonce) const {
  AttestationReport report;
  report.platform_id = platform_id_;
  report.measurement = cvm.measurement();
  report.nonce = nonce;
  report.chain = chain_;
  report.signature = crypto::EcdsaSign(pek_.private_key, report.Body());
  return report;
}

bool SevPlatform::InjectLaunchSecret(Cvm& cvm, const std::string& region, const Bytes& sealed,
                                     const crypto::EcPoint& sender_ephemeral_public) {
  DETA_CHECK_MSG(cvm.state() == Cvm::State::kPaused,
                 "launch secrets can only be injected into a paused CVM");
  Bytes shared = crypto::EcdhSharedSecret(transport_.private_key, sender_ephemeral_public);
  crypto::Aead aead(shared);
  std::optional<Bytes> secret = aead.Open(sealed, StringToBytes("sev-launch-secret"));
  if (!secret.has_value()) {
    LOG_WARNING << "platform " << platform_id_ << ": launch secret failed to unseal";
    return false;
  }
  cvm.encrypted_memory_[region] = cvm.EncryptRegion(region, *secret);
  return true;
}

void SevPlatform::Resume(Cvm& cvm) {
  DETA_CHECK(cvm.state() == Cvm::State::kPaused);
  cvm.state_ = Cvm::State::kRunning;
}

SealedSecret SealForPlatform(const Bytes& secret,
                             const crypto::EcPoint& platform_transport_public,
                             crypto::SecureRng& rng) {
  crypto::EcKeyPair ephemeral = crypto::GenerateEcKey(rng);
  Bytes shared = crypto::EcdhSharedSecret(ephemeral.private_key, platform_transport_public);
  crypto::Aead aead(shared);
  SealedSecret out;
  out.ciphertext = aead.Seal(secret, StringToBytes("sev-launch-secret"), rng);
  out.ephemeral_public = ephemeral.public_key;
  return out;
}

}  // namespace deta::cc
