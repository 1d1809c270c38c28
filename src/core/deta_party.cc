#include "core/deta_party.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/logging.h"
#include "common/sim_clock.h"
#include "common/telemetry.h"
#include "core/auth_protocol.h"
#include "core/key_broker.h"
#include "net/codec.h"
#include "persist/paillier_key_codec.h"

namespace deta::core {

namespace {
using Clock = std::chrono::steady_clock;
// Overall ceiling on one round's upload + result collection; the round is skipped when
// it expires.
constexpr int kResultTimeoutMs = 120000;

int MsUntil(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                    Clock::now());
  return static_cast<int>(std::max<int64_t>(0, left.count()));
}
}  // namespace

DetaParty::DetaParty(std::unique_ptr<fl::Party> local, DetaPartyConfig config,
                     std::vector<float> initial_params, net::Transport& transport,
                     crypto::SecureRng rng)
    : Role(transport, local->name(), config.idle_timeout_ms, config.durability),
      local_(std::move(local)),
      config_(std::move(config)),
      rng_(std::move(rng)),
      global_params_(std::move(initial_params)) {
  DETA_CHECK(!config_.durability.resume.fresh() ||
             static_cast<int64_t>(global_params_.size()) == local_->ParameterCount());
}

bool DetaParty::SetupChannels() {
  // Fetch the shared transform material from the trusted key broker first: the mapper
  // seed, the permutation key and the Paillier key exist only in participant-controlled
  // domains. A resumed party that restored sealed material from its snapshot already
  // has a transform and skips the broker entirely: the broker may no longer be running.
  // A broker that crashes mid-fetch needs no second handshake: the revived broker
  // restores this party's registration and channel from its snapshot, and the fetch's
  // next retransmission reaches it.
  if (transform_ == nullptr) {
    std::optional<TransformMaterial> material = FetchTransformMaterial(
        endpoint(), config_.key_broker_public, rng_, config_.retry);
    if (!material.has_value() || !AdoptMaterial(std::move(*material))) {
      return false;
    }
  }
  // Verify, then register with *all* aggregators (the paper's precondition for joining
  // training: no update is ever shared with an unverified aggregator).
  for (const std::string& agg : config_.aggregator_names) {
    auto token = config_.token_registry.find(agg);
    if (token == config_.token_registry.end()) {
      LOG_WARNING << name() << ": no attestation token on record for " << agg;
      return false;
    }
    if (!VerifyAggregator(endpoint(), agg, token->second, rng_, config_.retry)) {
      return false;
    }
    std::optional<net::SecureChannel> channel = RegisterWithAggregator(
        endpoint(), agg, token->second, rng_, config_.retry);
    if (!channel.has_value()) {
      return false;
    }
    channels_.emplace(agg, std::move(*channel));
  }
  return true;
}

bool DetaParty::Begin() {
  const ResumePoint& resume = config_.durability.resume;
  if (!resume.fresh() && !RestoreFromSnapshot()) {
    LOG_ERROR << name() << ": resume requested but no usable snapshot";
  } else {
    setup_ok_ = SetupChannels();
  }
  if (!resume.newest()) {
    endpoint().Send(config_.observer, kPartyReady,
                    Bytes{setup_ok_ ? uint8_t{1} : uint8_t{0}});
  }
  if (!setup_ok_) {
    return false;
  }
  if (resume.fresh()) {
    SaveState(0);  // post-setup baseline: resumable before the first round completes
  }
  return true;
}

void DetaParty::OnTick() {
  if (config_.rounds > 0 && last_round_ >= config_.rounds) {
    Exit();
  }
}

void DetaParty::Exit() {
  for (const std::string& agg : config_.aggregator_names) {
    endpoint().Send(agg, kPartyDone, {});
  }
  Finish();
}

void DetaParty::Dispatch(const net::Message& m) {
  if (m.type == kShutdown) {
    Exit();
  } else if (m.type == kRoundBegin) {
    net::Reader r(m.payload);
    int round = static_cast<int>(r.ReadU32());
    if (round <= last_round_) {
      return;  // retransmitted notice for a round we already ran
    }
    if (round == config_.durability.crash_at) {
      // Injected crash: die before doing any of round |round|'s work, exactly as a
      // process kill between rounds would. The job driver revives a replacement from
      // the last durable snapshot (round - 1).
      Crash("at round " + std::to_string(round));
      return;
    }
    RunRound(round);
    if (endpoint().closed()) {
      Finish();  // stopped mid-round: the round did not complete
      return;
    }
    last_round_ = round;
    SaveState(round);
  } else if (m.type == kRoundResult) {
    LOG_DEBUG << name() << ": late round result between rounds — ignored";
  } else if (m.type == kAuthRegisterAck || m.type == kAuthResponse ||
             m.type == kKeyBrokerMaterial) {
    // A slow reply races the handshake's (or key fetch's) retransmission, so the
    // responder answers twice and the surplus ack, challenge response, or material
    // copy pops out here. Expected protocol fallout, not a fault.
    LOG_DEBUG << name() << ": surplus " << m.type << " — ignored";
  } else {
    LOG_WARNING << name() << ": unexpected message type " << m.type;
  }
}

void DetaParty::SaveState(int round) {
  state().Save(round, [this](persist::Snapshot& snapshot) {
    snapshot.AddFloats(persist::SectionType::kModelParams, "params", global_params_);
    snapshot.Add(persist::SectionType::kTrainerState, "trainer",
                 local_->SerializeTrainerState());
    state().AddSealed(snapshot, persist::SectionType::kRngState, "rng",
                     rng_.SerializeState(), rng_);
    // The one key copy: the broker-served material carries the Paillier key.
    state().AddSealed(snapshot, persist::SectionType::kKeyMaterial, "material",
                     material_.Serialize(), rng_);
  });
}

bool DetaParty::RestoreFromSnapshot() {
  return state().Restore([this](const persist::Snapshot& snapshot) {
    std::optional<std::vector<float>> params = snapshot.FindFloats("params");
    const persist::Section* trainer = snapshot.Find("trainer");
    std::optional<Bytes> rng_state = state().OpenSealed(snapshot, "rng");
    std::optional<Bytes> material = state().OpenSealed(snapshot, "material");
    if (!params.has_value() ||
        static_cast<int64_t>(params->size()) != local_->ParameterCount() ||
        trainer == nullptr || !rng_state.has_value() || !material.has_value() ||
        !local_->RestoreTrainerState(trainer->data) || !rng_.RestoreState(*rng_state) ||
        !AdoptMaterial(TransformMaterial::Deserialize(*material))) {
      return false;
    }
    global_params_ = std::move(*params);
    last_round_ = snapshot.round;
    return true;
  });
}

bool DetaParty::AdoptMaterial(TransformMaterial material) {
  transform_ = material.BuildTransform();
  if (static_cast<int>(config_.aggregator_names.size()) != transform_->num_partitions()) {
    LOG_WARNING << name() << ": broker material partition count mismatch";
    return false;
  }
  if (config_.use_paillier) {
    // ExposeForCrypto: parsing the served blob back into PaillierPrivateKey, whose
    // components are themselves Secret members.
    paillier_ = persist::ParsePaillierKey(material.paillier_key.ExposeForCrypto());
    if (!paillier_.has_value()) {
      LOG_WARNING << name() << ": broker-served Paillier key failed to parse";
      return false;
    }
    paillier_codec_ =
        std::make_unique<fl::PaillierVectorCodec>(paillier_->pub, config_.num_parties);
  }
  material_ = std::move(material);
  return true;
}

void DetaParty::RunRound(int round) {
  telemetry::Span span("core.deta_party.round");
  DETA_COUNTER("core.deta_party.rounds").Increment();
  // --- local training ---
  fl::Party::LocalResult local = local_->RunLocalRound(global_params_, round);

  // --- Trans: partition + shuffle (+ Paillier encryption when enabled) ---
  // The round's shuffle tables are derived here once and reused by Trans^-1.
  Stopwatch transform_watch;
  const RoundTransform trans = transform_->ForRound(static_cast<uint64_t>(round));
  std::vector<std::vector<float>> fragments = trans.Apply(local.update.values);
  std::vector<Bytes> payloads(fragments.size());
  uint64_t upload_bytes_max = 0;
  for (size_t j = 0; j < fragments.size(); ++j) {
    if (config_.use_paillier) {
      payloads[j] = fl::SerializeCiphertexts(
          paillier_codec_->Encrypt(fragments[j], paillier_->priv, rng_));
    } else {
      fl::ModelUpdate fragment_update;
      fragment_update.values = std::move(fragments[j]);
      fragment_update.weight = local.update.weight;
      payloads[j] = fl::SerializeUpdate(fragment_update);
    }
    upload_bytes_max = std::max<uint64_t>(upload_bytes_max, payloads[j].size());
  }
  double transform_seconds = transform_watch.ElapsedSeconds();

  // --- upload Trans(LU[P]) fragment j to aggregator j, collect AU[A_j] back ---
  // Upload and collection are one retry loop: each attempt (re-)sends the fragment to
  // every aggregator whose result is still missing, then waits one backoff slice for
  // results. Re-sends are re-sealed so the aggregator's replay window accepts them; the
  // aggregator answers a re-send for an already-aggregated round with the cached result.
  // The loop is bounded by kResultTimeoutMs, not by the retry budget: an aggregator
  // that is merely slow (still waiting on other parties' uploads), or crashed and being
  // revived, is indistinguishable from a lossy link, and giving up after a handful of
  // retransmissions would turn benign scheduling skew into spurious round skips.
  // Retransmission cadence plateaus at the policy's capped timeout.
  //
  // CPU-time stopwatch: counts the (potentially expensive, e.g. Paillier) result
  // processing but not the blocking waits on the network.
  Stopwatch result_watch;
  // Wall-clock round-trip of the upload/collect exchange (first upload send to last
  // result decoded): the tail-latency signal the scale harness aggregates into
  // per-round p50/p99 (bench/scale_parties.cc).
  WallStopwatch rtt_watch;
  size_t num_aggs = payloads.size();
  std::vector<std::vector<float>> aggregated(num_aggs);
  std::vector<bool> have(num_aggs, false);
  size_t received = 0;
  Clock::time_point overall_deadline =
      Clock::now() + std::chrono::milliseconds(kResultTimeoutMs);
  for (int attempt = 0; received < num_aggs; ++attempt) {
    for (size_t j = 0; j < num_aggs; ++j) {
      if (have[j]) {
        continue;
      }
      const std::string& agg = config_.aggregator_names[j];
      if (attempt > 0) {
        DETA_COUNTER("core.deta_party.upload_resends").Increment();
      }
      net::Writer w;
      w.WriteU32(static_cast<uint32_t>(round));
      w.WriteBytes(channels_.at(agg).Seal(payloads[j], rng_));
      endpoint().Send(agg, kRoundUpload, w.Take());
    }
    Clock::time_point slice_deadline =
        Clock::now() +
        std::chrono::milliseconds(config_.retry.TimeoutForAttempt(attempt));
    if (slice_deadline > overall_deadline) {
      slice_deadline = overall_deadline;
    }
    while (received < num_aggs) {
      int wait_ms = MsUntil(slice_deadline);
      if (wait_ms == 0) {
        break;
      }
      std::optional<net::Message> m = endpoint().ReceiveTypeFor(kRoundResult, wait_ms);
      if (!m.has_value()) {
        if (endpoint().closed()) {
          return;
        }
        break;  // slice expired — retransmit to the silent aggregators
      }
      auto it = std::find(config_.aggregator_names.begin(),
                          config_.aggregator_names.end(), m->from);
      if (it == config_.aggregator_names.end()) {
        LOG_WARNING << name() << ": round result from unknown aggregator " << m->from;
        continue;
      }
      size_t j = static_cast<size_t>(it - config_.aggregator_names.begin());
      // A result that does not parse is dropped like one that does not open.
      DropIfMalformed(name(), *m, [&] {
        net::Reader r(m->payload);
        int result_round = static_cast<int>(r.ReadU32());
        if (result_round != round) {
          LOG_DEBUG << name() << ": stale round " << result_round << " result from "
                    << m->from << " — ignored";
          return;
        }
        if (have[j]) {
          return;  // duplicate (a re-served result we already decoded)
        }
        std::optional<Bytes> payload = channels_.at(m->from).Open(r.ReadBytes());
        if (!payload.has_value()) {
          LOG_WARNING << name() << ": failed to open aggregated fragment from "
                      << m->from;
          return;
        }
        if (config_.use_paillier) {
          // The aggregator states how many fragments it summed (fewer than num_parties
          // under a quorum); decode and average over exactly those, as
          // IterativeAveraging does on the plain path.
          net::Reader result(*payload);
          int addends = static_cast<int>(result.ReadU32());
          std::vector<crypto::BigUint> ct =
              fl::DeserializeCiphertexts(result.ReadBytes());
          if (addends < 1 || addends > config_.num_parties) {
            LOG_WARNING << name() << ": Paillier result from " << m->from << " claims "
                        << addends << " addends";
            return;
          }
          size_t fragment_len = static_cast<size_t>(
              transform_->config().enable_partition
                  ? transform_->mapper().PartitionSize(static_cast<int>(j))
                  : static_cast<int64_t>(global_params_.size()));
          aggregated[j] =
              paillier_codec_->DecryptSum(ct, paillier_->priv, fragment_len, addends);
          float inv = 1.0f / static_cast<float>(addends);
          for (auto& v : aggregated[j]) {
            v *= inv;
          }
        } else {
          aggregated[j] = fl::DeserializeUpdate(*payload).values;
        }
        have[j] = true;
        ++received;
      });
    }
    if (Clock::now() >= overall_deadline) {
      break;
    }
  }

  if (received < num_aggs) {
    // Graceful degradation: one or more aggregators stayed silent all the way to the
    // collection deadline. Skip the round — keep the last synchronized params — and
    // keep going; the observer records the absence.
    std::vector<std::string> silent;
    for (size_t j = 0; j < num_aggs; ++j) {
      if (!have[j]) {
        silent.push_back(config_.aggregator_names[j]);
      }
    }
    LOG_WARNING << name() << ": skipping round " << round << " (" << silent.size()
                << " aggregator(s) unresponsive)";
    if (!config_.observer.empty()) {
      net::Writer w;
      w.WriteU32(static_cast<uint32_t>(round));
      w.WriteU32(static_cast<uint32_t>(silent.size()));
      for (const std::string& agg : silent) {
        w.WriteString(agg);
      }
      endpoint().Send(config_.observer, kPartyRoundSkipped, w.Take());
    }
    return;
  }

  double result_seconds = result_watch.ElapsedSeconds();
  double upload_rtt_seconds = rtt_watch.ElapsedSeconds();

  // --- Trans^-1: un-shuffle + merge, then synchronize the local model ---
  Stopwatch invert_watch;
  std::vector<float> merged = trans.Invert(aggregated);
  double invert_seconds = invert_watch.ElapsedSeconds() + result_seconds;

  if (config_.train.kind == fl::TrainConfig::UpdateKind::kGradient) {
    for (size_t i = 0; i < global_params_.size(); ++i) {
      global_params_[i] -= config_.train.lr * merged[i];
    }
  } else {
    global_params_ = std::move(merged);
  }

  // --- timing report + (reporter only) the merged global model for evaluation ---
  if (!config_.observer.empty()) {
    net::Writer w;
    w.WriteU32(static_cast<uint32_t>(round));
    w.WriteDouble(local.train_seconds);
    w.WriteDouble(transform_seconds + invert_seconds);
    w.WriteU64(upload_bytes_max);
    w.WriteDouble(upload_rtt_seconds);
    endpoint().Send(config_.observer, kPartyTiming, w.Take());
    if (config_.is_reporter) {
      net::Writer wr;
      wr.WriteU32(static_cast<uint32_t>(round));
      wr.WriteFloatVector(global_params_);
      endpoint().Send(config_.observer, kPartyReport, wr.Take());
    }
  }
}

}  // namespace deta::core
