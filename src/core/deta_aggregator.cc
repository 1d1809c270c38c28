#include "core/deta_aggregator.h"

#include "cc/attestation_proxy.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/sim_clock.h"
#include "common/telemetry.h"
#include "crypto/secure_wipe.h"
#include "net/codec.h"

namespace deta::core {

namespace {
// The headroom ahead of a round message's sealed frame: u32 round || u64 frame length.
constexpr size_t kRoundHeaderSize = sizeof(uint32_t) + sizeof(uint64_t);
}  // namespace

Bytes SealRoundMessage(net::SecureChannel& channel, int round, size_t plaintext_size,
                       const std::function<void(net::Writer&)>& write_plaintext,
                       crypto::SecureRng& rng) {
  const size_t sealed_size = net::SecureChannel::kOverhead + plaintext_size;
  net::Writer w;
  w.Reserve(kRoundHeaderSize + sealed_size);
  w.WriteU32(static_cast<uint32_t>(round));
  w.WriteU64(sealed_size);
  channel.Seal(w, write_plaintext, rng);
  DETA_CHECK_EQ(w.size(), kRoundHeaderSize + sealed_size);
  return w.Take();
}

Bytes SealRoundMessage(net::SecureChannel& channel, int round, const Bytes& plaintext,
                       crypto::SecureRng& rng) {
  return SealRoundMessage(
      channel, round, plaintext.size(), [&plaintext](net::Writer& w) { w.WriteRaw(plaintext); },
      rng);
}

int RoundOf(const Bytes& payload) { return static_cast<int>(ReadU32(payload, 0)); }

std::optional<std::span<uint8_t>> OpenRoundMessage(net::SecureChannel& channel,
                                                   Bytes& payload) {
  net::Reader r(payload);
  r.ReadU32();
  const size_t frame_size = r.ReadSpan().size();
  return channel.OpenInPlace(
      std::span<uint8_t>(payload).subspan(r.position() - frame_size, frame_size));
}

DetaAggregator::DetaAggregator(const JobPlan& plan, std::string name,
                               std::shared_ptr<cc::Cvm> cvm,
                               const RoleDurability& durability, net::Transport& transport,
                               crypto::SecureRng rng)
    : Role(transport, std::move(name), plan.idle_timeout_ms, durability),
      plan_(plan),
      cvm_(std::move(cvm)),
      rng_(std::move(rng)) {
  // The token was injected by the attestation proxy in phase I; its presence is this
  // node's proof of having passed attestation.
  std::optional<Bytes> token = cvm_->GuestRead(cc::kTokenRegion);
  DETA_CHECK_MSG(token.has_value(),
                 "aggregator " << this->name() << " CVM has no provisioned auth token");
  token_private_ = Secret<crypto::BigUint>(crypto::BigUint::FromBytes(*token));
  crypto::SecureWipe(*token);

  if (plan_.paillier_public.has_value()) {
    paillier_codec_ = std::make_unique<fl::PaillierVectorCodec>(
        *plan_.paillier_public, static_cast<int>(plan_.party_names.size()));
  } else {
    algorithm_ = fl::MakeAlgorithm(plan_.algorithm);
  }
}

bool DetaAggregator::Begin() {
  if (!state().durability().resume.fresh() && !RestoreFromSnapshot()) {
    LOG_ERROR << name() << ": resume requested but no usable snapshot";
    return false;
  }
  return true;
}

void DetaAggregator::Dispatch(net::Message& m) {
  if (m.type == kAuthChallenge) {
    AnswerChallenge(endpoint(), m, token_private_);
  } else if (m.type == kAuthRegister) {
    auto result = registrations_.Accept(endpoint(), m, token_private_, rng_);
    if (result.has_value()) {
      channels_.insert_or_assign(result->first, std::move(result->second));
      // Registered channels are durable state: without them a crash before the first
      // aggregation would leave the revived node unable to open any party's uploads.
      SaveState(last_aggregated_round_);
    }
  } else if (m.type == kJobStart) {
    HandleJobStart(m);
  } else if (m.type == kRoundBegin) {
    HandleRoundBegin(m);
  } else if (m.type == kRoundUpload) {
    HandleUpload(m);
  } else if (m.type == kRoundDone) {
    net::Reader r(m.payload);
    MarkRoundDone(m.from, static_cast<int>(r.ReadU32()));
  } else if (m.type == kShutdown) {
    Finish();
  } else {
    LOG_WARNING << name() << ": unexpected message type " << m.type;
  }
}

void DetaAggregator::HandleJobStart(const net::Message& m) {
  if (!is_initiator()) {
    LOG_WARNING << name() << ": job.start sent to a follower aggregator — ignored";
    return;
  }
  if (current_round_ == 0) {
    // Resume-aware: a freshly constructed initiator starts at round 1; one revived or
    // restored from a snapshot picks up right after its last aggregated round.
    if (!StartCollecting(last_aggregated_round_ + 1)) {
      return;  // the injected crash fired
    }
    done_.clear();
    SendRoundBegin();
    begin_attempts_ = 1;
    next_begin_resend_ =
        Clock::now() + std::chrono::milliseconds(plan_.retry.TimeoutForAttempt(0));
  }
  // Ack even for a duplicate job.start: the first ack may have been dropped.
  endpoint().Send(m.from, kJobStartAck, {});
}

void DetaAggregator::SendRoundBegin() {
  // Only the silent get the notice: a party whose upload for this round reached us, or
  // a follower whose round.done for it did, already has it. The round's first send
  // finds nobody in either set.
  net::Writer w;
  w.WriteU32(static_cast<uint32_t>(current_round_));
  for (const std::string& party : plan_.party_names) {
    auto uploaded = upload_round_.find(party);
    if (uploaded == upload_round_.end() || uploaded->second != current_round_) {
      endpoint().Send(party, kRoundBegin, w.buffer());
    }
  }
  // Followers get the round notice too, so their collection deadline starts even when
  // every upload to them is delayed or dropped.
  for (const std::string& peer : plan_.aggregator_names) {
    if (peer != name() && !done_.count(peer)) {
      endpoint().Send(peer, kRoundBegin, w.buffer());
    }
  }
}

void DetaAggregator::HandleRoundBegin(const net::Message& m) {
  net::Reader r(m.payload);
  int round = static_cast<int>(r.ReadU32());
  if (is_initiator()) {
    LOG_WARNING << name() << ": initiator received round.begin — ignored";
    return;
  }
  // round.begin for round r+1 is the implicit ack of our round.done for round r.
  if (done_pending_ && round > done_round_) {
    done_pending_ = false;
  }
  if (round <= last_aggregated_round_ || (collecting() && round <= current_round_)) {
    return;  // retransmission of a round we already know about
  }
  StartCollecting(round);
}

bool DetaAggregator::StartCollecting(int round) {
  if (round == state().durability().crash_at) {
    // Injected crash: die before staging any of round |round|'s fragments, exactly as a
    // process kill at the round boundary would. The job driver revives a replacement
    // from the last snapshot.
    Crash("at round " + std::to_string(round));
    return false;
  }
  current_round_ = round;
  round_deadline_ = Clock::now() + std::chrono::milliseconds(plan_.round_timeout_ms);
  LOG_DEBUG << name() << ": collecting round " << round;
  return true;
}

void DetaAggregator::HandleUpload(net::Message& m) {
  auto channel = channels_.find(m.from);
  if (channel == channels_.end()) {
    LOG_WARNING << name() << ": upload from unregistered party " << m.from;
    return;
  }
  int round = RoundOf(m.payload);
  if (round == current_round_) {
    upload_round_[m.from] = round;
  }
  if (round <= last_aggregated_round_) {
    if (round == last_aggregated_round_ && !result_plain_.empty()) {
      // The party is retransmitting because it never saw our result — re-serve it.
      ResendResult(m.from);
    } else {
      LOG_WARNING << name() << ": dropping straggler fragment from " << m.from
                  << " for completed round " << round;
    }
    return;
  }
  if (!collecting()) {
    // Follower whose round.begin is still in flight: the first upload starts the round.
    if (!StartCollecting(round)) {
      return;  // the injected crash fired
    }
  }
  if (round != current_round_) {
    LOG_WARNING << name() << ": upload from " << m.from << " for round " << round
                << " while collecting round " << current_round_;
    return;
  }
  if (staged_.count(m.from)) {
    return;  // retransmission of a fragment we already hold
  }
  std::optional<std::span<uint8_t>> fragment = OpenRoundMessage(channel->second, m.payload);
  if (!fragment.has_value()) {
    LOG_WARNING << name() << ": failed to open sealed fragment from " << m.from;
    return;
  }
  // Everything the aggregator learns lands in CVM encrypted memory: this is exactly the
  // material the §6 breach experiments dump.
  cvm_->GuestWrite("update:" + m.from + ":r" + std::to_string(round), *fragment);
  staged_[m.from] = StagedFragment{std::move(m.payload), *fragment};
  if (static_cast<int>(staged_.size()) >= FragmentsNeeded()) {
    Aggregate(round);
  }
}

void DetaAggregator::Aggregate(int round) {
  telemetry::Span span("core.deta_agg.aggregate");
  DETA_COUNTER("core.deta_agg.rounds_aggregated").Increment();
  DETA_COUNTER("core.deta_agg.fragments").Add(staged_.size());
  Stopwatch watch;
  Bytes result_payload;

  if (paillier_codec_ != nullptr) {
    // Homomorphic accumulation; the aggregator never sees plaintext coordinates.
    std::vector<crypto::BigUint> acc;
    for (auto& [party, staged] : staged_) {
      std::vector<crypto::BigUint> ct = fl::DeserializeCiphertexts(staged.plaintext);
      if (acc.empty()) {
        acc = std::move(ct);
      } else {
        paillier_codec_->AccumulateInPlace(acc, ct);
      }
    }
    // Under a quorum the sum may hold fewer than num_parties fragments. The count rides
    // inside the sealed result, so re-served and resumed results carry it too, and
    // parties decode (and average) with it.
    net::Writer w;
    w.WriteU32(static_cast<uint32_t>(staged_.size()));
    w.WriteBytes(fl::SerializeCiphertexts(acc));
    result_payload = w.Take();
  } else {
    // The algorithm reads every fragment where it was received and opened.
    std::vector<fl::UpdateView> updates;
    updates.reserve(staged_.size());
    for (auto& [party, staged] : staged_) {
      updates.push_back(fl::ViewUpdate(staged.plaintext));
    }
    fl::ModelUpdate aggregated;
    aggregated.values = algorithm_->AggregateViews(updates);
    aggregated.weight = 1.0;
    result_payload = fl::SerializeUpdate(aggregated);
  }
  std::vector<std::string> missing;
  for (const std::string& party : plan_.party_names) {
    if (!staged_.count(party)) {
      missing.push_back(party);
    }
  }
  staged_.clear();
  last_aggregated_round_ = round;
  result_plain_ = std::move(result_payload);
  cvm_->GuestWrite("aggregated:r" + std::to_string(round), result_plain_);
  // Guest memory keeps only the latest round: free the previous round's regions.
  std::string previous = ":r" + std::to_string(round - 1);
  cvm_->GuestErase("aggregated" + previous);
  for (const std::string& party : plan_.party_names) {
    cvm_->GuestErase("update:" + party + previous);
  }
  // Crash consistency: the snapshot lands on disk *before* any party or peer can
  // observe this round as complete (result distribution / round.done below). A crash
  // at any later point revives into a state that can re-serve this round's result.
  SaveState(round);
  double agg_seconds = watch.ElapsedSeconds();
  if (!missing.empty()) {
    LOG_WARNING << name() << ": aggregated round " << round << " without "
                << missing.size() << " part" << (missing.size() == 1 ? "y" : "ies");
  }

  // Distribute AU[A_j] back to every party over its secure channel.
  for (auto& [party, channel] : channels_) {
    endpoint().Send(party, kRoundResult,
                    SealRoundMessage(channel, round, result_plain_, rng_));
  }

  // Timing + dropout report for the observer.
  net::Writer report;
  report.WriteU32(static_cast<uint32_t>(round));
  report.WriteDouble(agg_seconds);
  report.WriteU64(result_plain_.size());
  report.WriteU32(static_cast<uint32_t>(missing.size()));
  for (const std::string& party : missing) {
    report.WriteString(party);
  }
  endpoint().Send(kObserver, kAggReport, report.Take());

  // Synchronization: followers notify the initiator; the initiator counts itself.
  if (is_initiator()) {
    MarkRoundDone(name(), round);
  } else {
    done_pending_ = true;
    done_round_ = round;
    done_attempts_ = 1;
    next_done_resend_ =
        Clock::now() + std::chrono::milliseconds(plan_.retry.TimeoutForAttempt(0));
    SendRoundDone();
  }
}

void DetaAggregator::ResendResult(const std::string& party) {
  auto channel = channels_.find(party);
  if (channel == channels_.end()) {
    return;
  }
  LOG_DEBUG << name() << ": re-serving round " << last_aggregated_round_ << " result to "
            << party;
  DETA_COUNTER("core.deta_agg.results_reserved").Increment();
  endpoint().Send(party, kRoundResult,
                  SealRoundMessage(channel->second, last_aggregated_round_, result_plain_,
                                   rng_));
}

void DetaAggregator::SendRoundDone() {
  net::Writer w;
  w.WriteU32(static_cast<uint32_t>(done_round_));
  endpoint().Send(plan_.initiator(), kRoundDone, w.Take());
}

void DetaAggregator::MarkRoundDone(const std::string& aggregator, int round) {
  if (!is_initiator()) {
    LOG_WARNING << name() << ": round.done received by a follower";
    return;
  }
  if (round < current_round_) {
    // A follower retransmits round.done until round.begin for the next round acks it,
    // so a copy that crossed that round.begin arrives after the round advanced: expected
    // protocol fallout under load, not a fault.
    LOG_DEBUG << name() << ": surplus round.done for round " << round;
    return;
  }
  if (round > current_round_) {
    LOG_WARNING << name() << ": round.done for future round " << round;
    return;
  }
  // A set, not a counter: a retransmitted round.done from the same follower must not
  // count twice. Completion needs every aggregator including ourselves, and our own
  // name only lands here after our own aggregation.
  done_.insert(aggregator);
  if (done_.size() < plan_.aggregator_names.size()) {
    return;
  }
  if (current_round_ < plan_.rounds) {
    done_.clear();
    if (!StartCollecting(current_round_ + 1)) {
      return;  // the injected crash fired
    }
    SendRoundBegin();
    begin_attempts_ = 1;
    next_begin_resend_ =
        Clock::now() + std::chrono::milliseconds(plan_.retry.TimeoutForAttempt(0));
    return;
  }
  // Training complete. The observer ends the job: until its shutdown this node keeps
  // re-serving the final result to any party whose round.result was lost.
  LOG_INFO << name() << ": training complete after " << plan_.rounds << " rounds";
}

void DetaAggregator::SaveState(int round) {
  state().Save(round, [this](persist::Snapshot& snapshot) {
    net::Writer agg;
    agg.WriteU32(static_cast<uint32_t>(last_aggregated_round_));
    snapshot.Add(persist::SectionType::kRaw, "agg", agg.Take());
    state().AddSealed(snapshot, persist::SectionType::kRaw, "result", result_plain_,
                      rng_);
    state().AddSession(snapshot, channels_, registrations_, rng_);
  });
}

bool DetaAggregator::RestoreFromSnapshot() {
  return state().Restore([this](const persist::Snapshot& snapshot) {
    const persist::Section* agg = snapshot.Find("agg");
    std::optional<Bytes> result_plain = state().OpenSealed(snapshot, "result");
    if (agg == nullptr || !result_plain.has_value() ||
        !state().RestoreSession(snapshot, channels_, registrations_, rng_)) {
      return false;
    }
    // The round of the cached result. Older snapshots carry it twice; the copy after it
    // is not read.
    net::Reader r(agg->data);
    last_aggregated_round_ = static_cast<int>(r.ReadU32());
    result_plain_ = std::move(*result_plain);
    return true;
  });
}

int DetaAggregator::FragmentsNeeded() const {
  return plan_.quorum > 0 ? plan_.quorum : static_cast<int>(plan_.party_names.size());
}

void DetaAggregator::FailRound(int round) {
  int have = static_cast<int>(staged_.size());
  int need = FragmentsNeeded();
  LOG_WARNING << name() << ": quorum failure in round " << round << " (" << have << "/"
              << need << " fragments at deadline)";
  net::Writer w;
  w.WriteU32(static_cast<uint32_t>(round));
  w.WriteU32(static_cast<uint32_t>(have));
  w.WriteU32(static_cast<uint32_t>(need));
  endpoint().Send(kObserver, kAggFailed, w.Take());
  Finish();
}

void DetaAggregator::OnTick() {
  Clock::time_point now = Clock::now();

  // Round-collection deadline: a round still collecting has not met its quorum (it
  // aggregates the moment it does), so fail it with a typed error instead of waiting
  // forever.
  if (collecting() && now >= round_deadline_) {
    FailRound(current_round_);
    return;
  }

  // Initiator: keep nudging the parties (and followers) not yet heard from this round
  // with round.begin until the round completes — recovers parties whose original notice
  // was dropped.
  if (is_initiator() && current_round_ > 0 &&
      done_.size() < plan_.aggregator_names.size() &&
      begin_attempts_ < plan_.retry.max_attempts && now >= next_begin_resend_) {
    SendRoundBegin();
    next_begin_resend_ =
        now + std::chrono::milliseconds(plan_.retry.TimeoutForAttempt(begin_attempts_));
    ++begin_attempts_;
  }

  // Follower: retransmit round.done until the next round.begin (or shutdown) acks it.
  if (done_pending_ && now >= next_done_resend_) {
    if (done_attempts_ >= plan_.retry.max_attempts) {
      done_pending_ = false;
      return;
    }
    SendRoundDone();
    next_done_resend_ =
        now + std::chrono::milliseconds(plan_.retry.TimeoutForAttempt(done_attempts_));
    ++done_attempts_;
  }
}

}  // namespace deta::core
