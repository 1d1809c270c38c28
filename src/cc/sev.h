// Software model of AMD SEV (§3.2, §4.3 of the paper). The protocol artifacts are real
// (measurements, certificate chains, ECDSA signatures, encrypted guest memory); only the
// hardware root of trust is emulated — see DESIGN.md's substitution table.
//
// Modelled pieces:
//   * RemoteAttestationService — "AMD RAS": owns the ARK root key, signs the ASK, and
//     lets platforms obtain PEK certificates (simplified 3-link chain ARK→ASK→PEK).
//   * SevPlatform — one SEV-capable host: secure processor holding the PEK and per-CVM
//     VM encryption keys (VEKs), measured CVM launch, attestation report generation,
//     launch-secret injection into encrypted guest memory, CVM resume.
//   * Cvm — a confidential VM: image measurement (SHA-256 standing in for the OVMF launch
//     digest), memory regions encrypted under the VEK (ChaCha20 on the shared keystream
//     core), and explicit adversary views: HypervisorRead() (what a rogue host admin
//     sees — ciphertext) and Breach() (what a successful SEV exploit yields — plaintext;
//     drives the §6 worst-case analysis). An aggregator's CVM keeps only the latest
//     round's fragments and result: writing round N's result erases round N-1's.
#ifndef DETA_CC_SEV_H_
#define DETA_CC_SEV_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "crypto/chacha20.h"
#include "crypto/ec.h"
#include "crypto/ecdsa.h"

namespace deta::cc {

// Simplified AMD certificate chain: ARK (root) signs ASK, ASK signs the platform's PEK.
struct CertChain {
  crypto::EcPoint ark_public;
  crypto::EcPoint ask_public;
  crypto::EcdsaSignature ark_signature_on_ask;  // over encoded ASK key
  crypto::EcPoint pek_public;
  crypto::EcdsaSignature ask_signature_on_pek;  // over encoded PEK key

  // Validates both links against a trusted root key.
  bool Verify(const crypto::EcPoint& trusted_root) const;
};

struct AttestationReport {
  std::string platform_id;
  Bytes measurement;  // SHA-256 of the launched CVM image
  Bytes nonce;        // verifier freshness challenge
  CertChain chain;
  crypto::EcdsaSignature signature;  // PEK signature over the report body

  Bytes Body() const;  // canonical signed bytes
};

class SevPlatform;

// A confidential VM. Its memory is a set of named regions stored encrypted under the
// platform-held VEK; the guest decrypts transparently (GuestRead), the hypervisor sees
// ciphertext (HypervisorRead).
class Cvm {
 public:
  enum class State { kPaused, kRunning, kTerminated };

  const std::string& id() const { return id_; }
  State state() const { return state_; }
  const Bytes& measurement() const { return measurement_; }

  // In-guest accesses (only valid while running).
  void GuestWrite(const std::string& region, std::span<const uint8_t> plaintext);
  std::optional<Bytes> GuestRead(const std::string& region) const;
  // Frees a region (a no-op when it does not exist). Aggregators free the previous
  // round's regions as they write a new result, so guest memory holds only the latest
  // round and does not grow with the round count.
  void GuestErase(const std::string& region);

  // Host-adversary view: raw encrypted bytes (what SEV protects against).
  std::optional<Bytes> HypervisorRead(const std::string& region) const;

  // Worst-case CC-breach view (§6): the attacker has defeated SEV and can decrypt all
  // guest memory. Returns every region in plaintext.
  std::map<std::string, Bytes> Breach() const;

  void Terminate() { state_ = State::kTerminated; }

 private:
  friend class SevPlatform;
  Cvm(std::string id, Bytes measurement, std::array<uint8_t, crypto::kChaChaKeySize> vek);

  Bytes EncryptRegion(const std::string& region, std::span<const uint8_t> plaintext) const;
  Bytes DecryptRegion(const std::string& region, const Bytes& ciphertext) const;

  std::string id_;
  State state_ = State::kPaused;
  Bytes measurement_;
  std::array<uint8_t, crypto::kChaChaKeySize> vek_;  // held by the secure processor
  std::map<std::string, Bytes> encrypted_memory_;
};

// "AMD RAS": root of the certificate hierarchy.
class RemoteAttestationService {
 public:
  explicit RemoteAttestationService(crypto::SecureRng& rng);

  // Issues a certificate chain for a platform endorsement key.
  CertChain IssuePlatformChain(const crypto::EcPoint& pek_public);

  const crypto::EcPoint& RootKey() const { return ark_.public_key; }

 private:
  crypto::EcKeyPair ark_;
  crypto::EcKeyPair ask_;
  crypto::EcdsaSignature ark_signature_on_ask_;
};

// One SEV-capable host machine.
class SevPlatform {
 public:
  SevPlatform(std::string platform_id, RemoteAttestationService& ras, crypto::SecureRng& rng);

  const std::string& id() const { return platform_id_; }

  // Measured launch; the CVM starts paused, as in the paper's phase I, so a secret can be
  // injected after attestation and before any guest code runs.
  std::shared_ptr<Cvm> LaunchPausedCvm(const std::string& cvm_id, const Bytes& image);

  // Secure-processor attestation report over (measurement, nonce).
  AttestationReport GenerateReport(const Cvm& cvm, const Bytes& nonce) const;

  // Phase-I secret injection: |sealed| is ECDH-wrapped to this platform's transport key;
  // the secure processor unwraps it and writes it into the paused CVM's encrypted memory.
  bool InjectLaunchSecret(Cvm& cvm, const std::string& region, const Bytes& sealed,
                          const crypto::EcPoint& sender_ephemeral_public);

  void Resume(Cvm& cvm);

  // Public half of the transport key used to wrap launch secrets for this platform.
  const crypto::EcPoint& TransportPublicKey() const { return transport_.public_key; }

 private:
  std::string platform_id_;
  crypto::EcKeyPair pek_;        // platform endorsement key (signs reports)
  crypto::EcKeyPair transport_;  // launch-secret wrapping key
  CertChain chain_;
  crypto::SecureRng rng_;
};

// Seals |secret| for |platform_transport_public| (ECDH + AEAD); used by the attestation
// proxy to provision tokens. Returns the sealed blob and the ephemeral public key.
struct SealedSecret {
  Bytes ciphertext;
  crypto::EcPoint ephemeral_public;
};
SealedSecret SealForPlatform(const Bytes& secret, const crypto::EcPoint& platform_transport_public,
                             crypto::SecureRng& rng);

}  // namespace deta::cc

#endif  // DETA_CC_SEV_H_
