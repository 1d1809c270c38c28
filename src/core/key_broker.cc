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
                     KeyBrokerDurability durability)
    : material_(std::move(material)),
      identity_(std::move(identity)),
      expected_parties_(expected_parties),
      durability_(durability),
      rng_(std::move(rng)) {
  endpoint_ = transport.CreateEndpoint(kEndpointName);
}

KeyBroker::~KeyBroker() {
  Stop();
  Join();
}

void KeyBroker::Start() {
  thread_ = ServiceThread([this] { Run(); });
}

void KeyBroker::Stop() { endpoint_->Close(); }

void KeyBroker::Join() { thread_.Join(); }

void KeyBroker::Run() {
  if (durability_.resume && !RestoreFromSnapshot()) {
    LOG_WARNING << "key broker: resume requested but no usable snapshot — "
                   "starting with fresh session state";
  }
  // Tick granularity for noticing Stop(): with expected_parties <= 0 nothing but
  // Close() ends the loop, so an indefinite Receive() could outlive the job had a
  // party's final fetch been lost. Bounded waits keep the broker responsive to
  // shutdown no matter what the bus drops (lint rule DL-L1).
  constexpr int kTickMs = 200;
  Bytes material_wire = material_.Serialize();
  while (expected_parties_ <= 0 ||
         static_cast<int>(served_.size()) < expected_parties_) {
    std::optional<net::Message> m = endpoint_->ReceiveFor(kTickMs);
    if (!m.has_value()) {
      if (endpoint_->closed()) {
        return;  // Stop()
      }
      continue;  // idle tick; keep serving
    }
    if (m->type == kAuthChallenge) {
      AnswerChallenge(*endpoint_, *m, identity_.private_key);
    } else if (m->type == kAuthRegister) {
      auto result = registrations_.Accept(*endpoint_, *m, identity_.private_key, rng_);
      if (result.has_value()) {
        channels_.insert_or_assign(result->first, std::move(result->second));
        SaveState();
      }
    } else if (m->type == kKeyBrokerFetch) {
      if (durability_.crash_after_serves > 0 && !served_.count(m->from) &&
          static_cast<int>(served_.size()) + 1 >= durability_.crash_after_serves) {
        // Injected crash: die instead of serving the Nth distinct party. The job
        // driver revives a replacement; the stranded party restarts its whole
        // verify/register/fetch handshake against it.
        LOG_WARNING << "key broker: injected crash before serving " << m->from;
        DETA_COUNTER("persist.crash.injected").Increment();
        crashed_.store(true);
        endpoint_->Close();
        return;
      }
      auto it = channels_.find(m->from);
      if (it == channels_.end()) {
        LOG_WARNING << "key broker: fetch from unregistered party " << m->from;
        continue;
      }
      // Re-seal per fetch: each reply carries a fresh channel sequence number, so a
      // retransmitted fetch gets a reply the party's replay window still accepts.
      endpoint_->Send(m->from, kKeyBrokerMaterial,
                      it->second.Seal(material_wire, rng_));
      bool first = served_.insert(m->from).second;
      if (first) {
        SaveState();
      }
      LOG_DEBUG << "key broker: served transform material to " << m->from
                << (first ? "" : " (re-serve)") << " (" << served_.size() << "/"
                << (expected_parties_ > 0 ? std::to_string(expected_parties_) : "∞")
                << ")";
    } else if (m->type == kShutdown) {
      // Sent by a remote observer (multi-process deployments, where the job cannot
      // call Stop() on a broker it does not own). Local jobs still use Stop().
      endpoint_->Close();
      return;
    } else {
      LOG_WARNING << "key broker: unexpected message type " << m->type;
    }
  }
}

void KeyBroker::SaveState() {
  if (durability_.store == nullptr) {
    return;
  }
  persist::Snapshot snapshot;
  snapshot.role = kEndpointName;
  snapshot.round = static_cast<int>(served_.size());  // serve progress, not a round
  persist::SealKey seal = persist::SealKey::Derive(durability_.seal_seed, kEndpointName);
  snapshot.Add(persist::SectionType::kChannelState, "channels",
               seal.Seal(net::SerializeChannels(channels_), rng_));
  snapshot.Add(persist::SectionType::kRegistrationCache, "registrations",
               seal.Seal(registrations_.Serialize(), rng_));
  snapshot.Add(persist::SectionType::kRngState, "rng",
               seal.Seal(rng_.SerializeState(), rng_));
  net::Writer sw;
  sw.WriteU32(static_cast<uint32_t>(served_.size()));
  for (const std::string& party : served_) {
    sw.WriteString(party);
  }
  snapshot.Add(persist::SectionType::kRaw, "served", sw.Take());
  if (!durability_.store->Write(snapshot)) {
    LOG_WARNING << "key broker: snapshot write failed";
  }
}

bool KeyBroker::RestoreFromSnapshot() {
  if (durability_.store == nullptr) {
    return false;
  }
  std::optional<persist::Snapshot> snapshot = durability_.store->Load(kEndpointName);
  if (!snapshot.has_value()) {
    return false;
  }
  persist::SealKey seal = persist::SealKey::Derive(durability_.seal_seed, kEndpointName);
  const persist::Section* channels = snapshot->Find("channels");
  const persist::Section* registrations = snapshot->Find("registrations");
  const persist::Section* rng_section = snapshot->Find("rng");
  const persist::Section* served = snapshot->Find("served");
  if (channels == nullptr || registrations == nullptr || rng_section == nullptr ||
      served == nullptr) {
    return false;
  }
  try {
    std::optional<Bytes> channels_plain = seal.Open(channels->data);
    std::optional<Bytes> registrations_plain = seal.Open(registrations->data);
    std::optional<Bytes> rng_plain = seal.Open(rng_section->data);
    if (!channels_plain.has_value() || !registrations_plain.has_value() ||
        !rng_plain.has_value()) {
      return false;
    }
    std::optional<std::map<std::string, net::SecureChannel>> restored =
        net::RestoreChannels(*channels_plain);
    if (!restored.has_value()) {
      return false;
    }
    std::set<std::string> served_names;
    net::Reader sr(served->data);
    uint32_t served_count = sr.ReadU32();
    for (uint32_t i = 0; i < served_count; ++i) {
      served_names.insert(sr.ReadString());
    }
    if (!registrations_.Deserialize(*registrations_plain) ||
        !rng_.RestoreState(*rng_plain)) {
      return false;
    }
    channels_ = std::move(*restored);
    served_ = std::move(served_names);
    LOG_INFO << "key broker: resumed with " << served_.size()
             << " parties already served (generation " << snapshot->generation << ")";
    return true;
  } catch (const CheckFailure&) {
    return false;
  }
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
  DETA_COUNTER("core.kb.fetch_ok").Increment();
  return TransformMaterial::Deserialize(*material);
}

}  // namespace deta::core
