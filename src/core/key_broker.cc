#include "core/key_broker.h"

#include "core/deta_aggregator.h"

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "net/codec.h"

namespace deta::core {

Bytes TransformMaterial::Serialize() const {
  net::Writer w;
  // ExposeForSeal: the serialized material only travels sealed — inside the broker's
  // SecureChannel replies and (never today, but structurally) sealed snapshot sections.
  w.WriteBytes(permutation_key.ExposeForSeal());
  w.WriteBytes(mapper_seed.ExposeForSeal());
  w.WriteI64(total_params);
  w.WriteU64(proportions.size());
  for (double p : proportions) {
    w.WriteDouble(p);
  }
  w.WriteU32(static_cast<uint32_t>(num_aggregators));
  w.WriteU32(enable_partition ? 1 : 0);
  w.WriteU32(enable_shuffle ? 1 : 0);
  w.WriteBytes(paillier_key.ExposeForSeal());
  return w.Take();
}

TransformMaterial TransformMaterial::Deserialize(const Bytes& data) {
  net::Reader r(data);
  TransformMaterial m;
  m.permutation_key = Secret<Bytes>(r.ReadBytes());
  m.mapper_seed = Secret<Bytes>(r.ReadBytes());
  m.total_params = r.ReadI64();
  uint64_t count = r.ReadU64();
  for (uint64_t i = 0; i < count; ++i) {
    m.proportions.push_back(r.ReadDouble());
  }
  m.num_aggregators = static_cast<int>(r.ReadU32());
  m.enable_partition = r.ReadU32() != 0;
  m.enable_shuffle = r.ReadU32() != 0;
  m.paillier_key = Secret<Bytes>(r.ReadBytes());
  return m;
}

std::shared_ptr<Transform> TransformMaterial::BuildTransform() const {
  DETA_CHECK_GT(total_params, 0);
  std::shared_ptr<ModelMapper> mapper;
  // ExposeForCrypto: the seed and key feed PRF-driven derivations (mapper layout,
  // shuffle permutation); the Shuffler re-wraps the key in its own Secret member.
  const Bytes& seed = mapper_seed.ExposeForCrypto();
  if (proportions.empty()) {
    mapper = std::make_shared<ModelMapper>(
        ModelMapper::Uniform(total_params, num_aggregators, seed));
  } else {
    mapper = std::make_shared<ModelMapper>(total_params, proportions, seed);
  }
  auto shuffler = std::make_shared<Shuffler>(permutation_key.ExposeForCrypto());
  TransformConfig config;
  config.enable_partition = enable_partition;
  config.enable_shuffle = enable_shuffle;
  return std::make_shared<Transform>(std::move(mapper), std::move(shuffler), config);
}

KeyBroker::KeyBroker(TransformMaterial material, crypto::EcKeyPair identity,
                     int expected_parties, net::Transport& transport, crypto::SecureRng rng,
                     const RoleDurability& durability)
    : Role(transport, kEndpointName, /*idle_timeout_ms=*/0, durability),
      material_(std::move(material)),
      identity_(std::move(identity)),
      expected_parties_(expected_parties),
      rng_(std::move(rng)) {}

bool KeyBroker::Begin() {
  if (!state().durability().resume.fresh() && !RestoreFromSnapshot()) {
    LOG_WARNING << "key broker: resume requested but no usable snapshot — "
                   "starting with fresh session state";
  }
  return true;
}

void KeyBroker::OnTick() {
  if (expected_parties_ > 0 && static_cast<int>(served_.size()) >= expected_parties_) {
    Finish();
  }
}

void KeyBroker::Dispatch(net::Message& m) {
  if (m.type == kAuthChallenge) {
    AnswerChallenge(endpoint(), m, identity_.private_key);
  } else if (m.type == kAuthRegister) {
    auto result = registrations_.Accept(endpoint(), m, identity_.private_key, rng_);
    if (result.has_value()) {
      channels_.insert_or_assign(result->first, std::move(result->second));
      SaveState();
    }
  } else if (m.type == kKeyBrokerFetch) {
    const int crash_at = state().durability().crash_at;
    if (crash_at > 0 && !served_.count(m.from) &&
        static_cast<int>(served_.size()) + 1 >= crash_at) {
      // Injected crash: die instead of serving the Nth distinct party. The job driver
      // revives a replacement; the stranded party restarts its whole
      // verify/register/fetch handshake against it.
      Crash("before serving " + m.from);
      return;
    }
    auto it = channels_.find(m.from);
    if (it == channels_.end()) {
      LOG_WARNING << "key broker: fetch from unregistered party " << m.from;
      return;
    }
    // Re-seal per fetch: each reply carries a fresh channel sequence number, so a
    // retransmitted fetch gets a reply the party's replay window still accepts.
    endpoint().Send(m.from, kKeyBrokerMaterial,
                    it->second.Seal(material_.Serialize(), rng_));
    bool first = served_.insert(m.from).second;
    if (first) {
      SaveState();
    }
    LOG_DEBUG << "key broker: served transform material to " << m.from
              << (first ? "" : " (re-serve)") << " (" << served_.size() << "/"
              << (expected_parties_ > 0 ? std::to_string(expected_parties_) : "∞")
              << ")";
  } else if (m.type == kShutdown) {
    // Sent by a remote observer (multi-process deployments, where the job cannot
    // call Stop() on a broker it does not own). Local jobs still use Stop().
    Stop();
    Finish();
  } else {
    LOG_WARNING << "key broker: unexpected message type " << m.type;
  }
}

void KeyBroker::SaveState() {
  // The snapshot round counts parties served, not rounds.
  state().Save(static_cast<int>(served_.size()), [this](persist::Snapshot& snapshot) {
    state().AddSession(snapshot, channels_, registrations_, rng_);
    net::Writer sw;
    sw.WriteU32(static_cast<uint32_t>(served_.size()));
    for (const std::string& party : served_) {
      sw.WriteString(party);
    }
    snapshot.Add(persist::SectionType::kRaw, "served", sw.Take());
  });
}

bool KeyBroker::RestoreFromSnapshot() {
  return state().Restore([this](const persist::Snapshot& snapshot) {
    const persist::Section* served = snapshot.Find("served");
    if (served == nullptr) {
      return false;
    }
    std::set<std::string> served_names;
    net::Reader sr(served->data);
    uint32_t served_count = sr.ReadU32();
    for (uint32_t i = 0; i < served_count; ++i) {
      served_names.insert(sr.ReadString());
    }
    if (!state().RestoreSession(snapshot, channels_, registrations_, rng_)) {
      return false;
    }
    served_ = std::move(served_names);
    return true;
  });
}

std::optional<TransformMaterial> FetchTransformMaterial(
    net::Endpoint& endpoint, const crypto::EcPoint& broker_public,
    crypto::SecureRng& rng, const net::RetryPolicy& policy) {
  // Spans the whole verify -> register -> fetch handshake, so `span.core.kb.fetch.*`
  // histograms report end-to-end handshake latency including retries.
  telemetry::Span span("core.kb.fetch");
  DETA_COUNTER("core.kb.fetch_started").Increment();
  if (!VerifyAggregator(endpoint, KeyBroker::kEndpointName, broker_public, rng,
                        policy)) {
    LOG_WARNING << endpoint.name() << ": key broker failed identity challenge";
    return std::nullopt;
  }
  std::optional<net::SecureChannel> channel = RegisterWithAggregator(
      endpoint, KeyBroker::kEndpointName, broker_public, rng, policy);
  if (!channel.has_value()) {
    return std::nullopt;
  }
  std::optional<net::Message> m = net::RequestReply(
      endpoint, KeyBroker::kEndpointName, kKeyBrokerFetch, {}, kKeyBrokerMaterial,
      policy);
  if (!m.has_value()) {
    return std::nullopt;
  }
  std::optional<Bytes> material = channel->Open(m->payload);
  if (!material.has_value()) {
    LOG_WARNING << endpoint.name() << ": key broker material failed to unseal";
    return std::nullopt;
  }
  std::optional<TransformMaterial> parsed;
  if (!DropIfMalformed(endpoint.name(), *m,
                       [&] { parsed = TransformMaterial::Deserialize(*material); })) {
    return std::nullopt;
  }
  DETA_COUNTER("core.kb.fetch_ok").Increment();
  return parsed;
}

}  // namespace deta::core
