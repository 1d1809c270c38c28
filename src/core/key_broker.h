// Trusted key-broker service (paper §4.2: the permutation is seeded by "a permutation key
// (e.g., dispatched from a trusted key broker service) agreed among all parties").
//
// The broker is a party-side trusted component (like the attestation proxy). It owns the
// shared transform material — the permutation key and the model-mapper seed — and serves
// it to parties over the same authenticated-ECDH channel construction used for
// aggregators: parties know the broker's identity public key out of band, challenge it,
// register, then *pull* the material with an explicit fetch request answered on the
// sealed channel. The pull (rather than a push after registration) makes the exchange a
// request/reply pair the party can retransmit when the bus drops either direction.
// Aggregators never talk to the broker, so the material never exists outside
// participant-controlled domains. A Role (core/role.h) with no idle backstop.
#ifndef DETA_CORE_KEY_BROKER_H_
#define DETA_CORE_KEY_BROKER_H_

#include <map>
#include <memory>
#include <set>

#include "common/secret.h"
#include "core/auth_protocol.h"
#include "core/role.h"
#include "core/transform.h"

namespace deta::core {

inline constexpr char kKeyBrokerFetch[] = "kb.fetch";
inline constexpr char kKeyBrokerMaterial[] = "kb.material";

// Everything a party needs to construct the shared Transform deterministically.
// The keys decide the shuffle/partition every party applies — leaking them lets an
// aggregator undo the transform, so they are Secret members: they wipe on destruction,
// and reaching a log, telemetry label, or plaintext snapshot section requires an
// audited Expose* call.
struct TransformMaterial {
  Secret<Bytes> permutation_key;
  Secret<Bytes> mapper_seed;
  // Serialized Paillier key pair (persist/paillier_key_codec.h; empty = job does not
  // use Paillier fusion). Carried by the broker so the fusion decryption capability is
  // dispatched over the same authenticated channel as the transform secrets — it is
  // the key-broker key material the paper's §4.2 broker role exists to hold. A party's
  // sealed snapshot keeps the key only here.
  Secret<Bytes> paillier_key;
  int64_t total_params = 0;
  std::vector<double> proportions;  // empty = uniform over num_aggregators
  int num_aggregators = 1;
  bool enable_partition = true;
  bool enable_shuffle = true;

  Bytes Serialize() const;
  static TransformMaterial Deserialize(const Bytes& data);

  // Builds the Transform this material describes (identical across parties).
  std::shared_ptr<Transform> BuildTransform() const;
};

class KeyBroker final : public Role {
 public:
  // |identity| is the broker's long-lived signing key; its public half is distributed to
  // parties out of band (like the AP's token registry). With |expected_parties| > 0 the
  // broker exits once that many *distinct* parties have been served (retransmitted
  // fetches are re-served without advancing the count); with |expected_parties| <= 0 it
  // serves until Stop() — the right mode under fault injection, where a party may still
  // need a retransmission after every party has been served once.
  // |durability| snapshots the session (not the material, which a revive hands over)
  // after each registration and first serve; the snapshot round counts serves.
  KeyBroker(TransformMaterial material, crypto::EcKeyPair identity, int expected_parties,
            net::Transport& transport, crypto::SecureRng rng,
            const RoleDurability& durability = {});
  ~KeyBroker() override { Stop(); Join(); }

  static constexpr char kEndpointName[] = "key-broker";

  // After the injected crash: the replacement with the same material and identity,
  // resuming its session from this broker's newest snapshot.
  std::unique_ptr<KeyBroker> Revive(crypto::SecureRng rng) {
    Release();
    return std::make_unique<KeyBroker>(std::move(material_), std::move(identity_),
                                       expected_parties_, transport(), std::move(rng),
                                       state().durability().Revived());
  }

 private:
  bool Begin() override;
  void Dispatch(net::Message& m) override;
  // With expected_parties > 0, ends the broker once that many parties were served.
  void OnTick() override;
  void SaveState();
  bool RestoreFromSnapshot();

  TransformMaterial material_;
  crypto::EcKeyPair identity_;
  int expected_parties_;
  crypto::SecureRng rng_;
  RegistrationCache registrations_;
  std::map<std::string, net::SecureChannel> channels_;
  std::set<std::string> served_;
};

// Party-side: verify the broker, register, fetch and open the material. Every wait is
// bounded by |policy|; nullopt if verification fails or the broker stays unresponsive.
std::optional<TransformMaterial> FetchTransformMaterial(
    net::Endpoint& endpoint, const crypto::EcPoint& broker_public,
    crypto::SecureRng& rng, const net::RetryPolicy& policy = {});

}  // namespace deta::core

#endif  // DETA_CORE_KEY_BROKER_H_
