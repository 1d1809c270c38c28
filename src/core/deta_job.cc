#include "core/deta_job.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "common/check.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "crypto/sha256.h"
#include "net/codec.h"
#include "persist/paillier_key_codec.h"

namespace deta::core {

namespace {

using Clock = std::chrono::steady_clock;

// The aggregator "image" whose SHA-256 is the CVM launch measurement. In a real
// deployment this is the OVMF+workload digest; here a canonical manifest plays that role —
// any tampering (e.g. a malicious aggregator binary) changes the measurement and fails
// attestation, which is exactly the property the tests exercise.
Bytes AggregatorImage(const fl::ExecutionOptions& options) {
  net::Writer w;
  w.WriteString("deta-aggregator-image-v1");
  w.WriteString(options.algorithm);
  w.WriteU32(options.use_paillier ? 1 : 0);
  return w.Take();
}

// What the observer has heard of one round. A party counts once, whether it reported its
// timing, skipped the round or was missing from an aggregation: under a quorum, a party
// missing from an aggregation still receives the result and reports its timing.
struct RoundRecord {
  std::set<std::string> accounted;
  std::set<std::string> reported;  // by the party itself: its timing or its skip
  std::set<std::string> dropouts;  // missing from an aggregation, or skipped
  bool reporter_skipped = false;
  std::optional<std::vector<float>> params;  // the reporter's merged global model
  std::vector<std::pair<double, double>> timings;  // per party: (train, trans)
  std::vector<double> rtts;                        // per party: upload round-trip
  uint64_t upload_bytes = 0;                       // the largest fragment
  std::vector<std::pair<double, uint64_t>> agg_reports;  // per aggregator: (agg, bytes)

  // Every party accounted for, every aggregator reported, and the reporter's parameters
  // in unless the reporter itself skipped the round.
  bool Complete(const JobPlan& plan) const {
    return accounted.size() >= plan.party_names.size() &&
           agg_reports.size() >= plan.aggregator_names.size() &&
           (params.has_value() || reporter_skipped);
  }
};

}  // namespace

DetaJob::DetaJob(fl::ExecutionOptions options, DetaOptions deta,
                 std::vector<std::unique_ptr<fl::Party>> parties,
                 const fl::ModelFactory& global_factory, data::Dataset eval,
                 DetaDeployment deployment)
    : options_(std::move(options)),
      deta_(std::move(deta)),
      deployment_(std::move(deployment)),
      global_model_(global_factory()),
      eval_(std::move(eval)) {
  transport_ = deployment_.transport != nullptr ? deployment_.transport : &bus_;
  // --- The job plan every party and aggregator reads. Its rosters are identical in
  // every process; |parties| holds trainers for the local subset when a roster is given
  // explicitly. The keys join it as setup makes them. ---
  if (deployment_.party_names.empty()) {
    for (const auto& p : parties) {
      plan_.party_names.push_back(p->name());
    }
  } else {
    plan_.party_names = deployment_.party_names;
  }
  const std::string shape_error = JobShapeError(options_, deta_, plan_.party_names.size());
  DETA_CHECK_MSG(shape_error.empty(), shape_error);
  plan_.rounds = options_.rounds;
  plan_.quorum = deta_.quorum;
  plan_.round_timeout_ms = options_.round_timeout_ms;
  // The idle backstop only has to beat a genuinely dead peer, so it covers the worst
  // legitimate silence: an early party hears nothing while the rest of the roster
  // finishes setup, and an aggregator waits out the same tail before round 1.
  plan_.idle_timeout_ms =
      std::max({60000, options_.round_timeout_ms, options_.setup_timeout_ms});
  plan_.retry = options_.retry;
  plan_.algorithm = options_.algorithm;
  plan_.train = options_.train;
  observer_local_ = RoleIsLocal(kObserver);
  broker_local_ = RoleIsLocal(KeyBroker::kEndpointName);
  DETA_CHECK_MSG(options_.fault_plan.crashes.empty() || deployment_.local_roles.empty(),
                 "crash-fault orchestration requires a single-process job: the observer "
                 "supervises revives and cannot restart roles in other processes");
  crypto::SecureRng setup_rng(
      StringToBytes("deta-job-setup-" + std::to_string(options_.seed)));

  // --- Durability: one StateStore shared by every role of this job. ---
  if (!options_.checkpoint.dir.empty()) {
    store_ = std::make_unique<persist::StateStore>(
        persist::StateStoreOptions{options_.checkpoint.dir});
  }
  DETA_CHECK_MSG(options_.fault_plan.crashes.empty() || store_ != nullptr,
                 "crash faults require checkpoint.dir (roles revive from snapshots)");
  // Whole-job resume: load the job snapshot (the consistent cut every role restores to)
  // before any role is configured. A missing/mismatched snapshot is a typed setup
  // failure surfaced from Run(), not a silent fresh start.
  const bool whole_job_resume = store_ != nullptr && options_.checkpoint.resume;
  if (whole_job_resume) {
    std::optional<persist::Snapshot> job_snap = store_->Load("job");
    const persist::Section* config =
        job_snap.has_value() ? job_snap->Find("config") : nullptr;
    const persist::Section* observer_state =
        job_snap.has_value() ? job_snap->Find("observer") : nullptr;
    std::optional<std::vector<float>> params =
        job_snap.has_value() ? job_snap->FindFloats("params") : std::nullopt;
    if (!job_snap.has_value()) {
      resume_failed_ = true;
      resume_error_ =
          "resume requested but no verifiable job snapshot in " + options_.checkpoint.dir;
    } else if (config == nullptr || config->data != ConfigDigest()) {
      resume_failed_ = true;
      resume_error_ = "job snapshot was written by a different configuration "
                      "(seed/topology/algorithm mismatch)";
    } else if (!params.has_value() || observer_state == nullptr ||
               params->size() != static_cast<size_t>(global_model_->NumParameters())) {
      resume_failed_ = true;
      resume_error_ = "job snapshot is missing sections or sized for a different model";
    } else {
      try {
        net::Reader r(observer_state->data);
        resume_cumulative_ = r.ReadDouble();
        resume_round_ = job_snap->round;
        global_model_->SetFlatParams(*params);
        LOG_INFO << "DeTA job: resuming from job snapshot at round " << resume_round_
                 << " (generation " << job_snap->generation << ")";
      } catch (const CheckFailure&) {
        resume_failed_ = true;
        resume_error_ = "job snapshot observer section is malformed";
      }
    }
  }
  const bool resume_roles = whole_job_resume && !resume_failed_;
  // Whole-job resume pins parties and aggregators to the job snapshot's round; the key
  // broker resumes from its newest snapshot, whose round counts serves.
  auto durability = [&](const std::string& role, ResumePoint resume) {
    return RoleDurability{store_.get(), options_.seed, resume,
                          options_.fault_plan.CrashRoundFor(role)};
  };
  const ResumePoint role_resume =
      resume_roles ? ResumePoint::AtRound(resume_round_) : ResumePoint::Fresh();

  // --- Phase I: platforms, paused CVMs, attestation, token provisioning (steps 1-2) ---
  ras_ = std::make_unique<cc::RemoteAttestationService>(setup_rng);
  Bytes image = AggregatorImage(options_);
  proxy_ = std::make_unique<cc::AttestationProxy>(
      ras_->RootKey(), crypto::Sha256Digest(image),
      crypto::SecureRng(setup_rng.NextBytes(32)));

  for (int j = 0; j < deta_.num_aggregators; ++j) {
    std::string name = "aggregator" + std::to_string(j);
    platforms_.push_back(std::make_unique<cc::SevPlatform>(
        "platform" + std::to_string(j), *ras_, setup_rng));
    cvms_.push_back(platforms_.back()->LaunchPausedCvm(name, image));
    auto provision = proxy_->VerifyAndProvision(*platforms_.back(), *cvms_.back());
    DETA_CHECK_MSG(provision.ok, "aggregator attestation failed: " << provision.failure_reason);
    plan_.aggregator_names.push_back(name);
  }
  plan_.token_registry = proxy_->TokenRegistry();

  // --- Shared party-side secrets: model mapper seed + permutation key. The trusted key
  // broker owns them and serves them to parties over authenticated channels (§4.2);
  // aggregators never see this material. ---
  TransformMaterial material;
  material.total_params = global_model_->NumParameters();
  material.mapper_seed = Secret<Bytes>(setup_rng.NextBytes(32));
  material.permutation_key = Secret<Bytes>(
      GeneratePermutationKey(deta_.permutation_key_bits, setup_rng.NextBytes(32)));
  material.proportions = deta_.proportions;
  material.num_aggregators = deta_.num_aggregators;
  material.enable_partition = deta_.enable_partition;
  material.enable_shuffle = deta_.enable_shuffle;

  // --- Paillier key material: generated before the broker exists so the fusion key
  // rides inside the broker-served material (§4.2 key-broker key material) and reaches
  // parties over the same authenticated channel as the transform secrets. ---
  if (options_.use_paillier) {
    crypto::PaillierKeyPair paillier =
        crypto::GeneratePaillierKey(setup_rng, options_.paillier_modulus_bits);
    material.paillier_key = Secret<Bytes>(persist::SerializePaillierKey(paillier));
    plan_.paillier_public = paillier.pub;
  }

  crypto::EcKeyPair broker_identity = crypto::GenerateEcKey(setup_rng);
  // The transform material and the Paillier key reach parties only over the
  // authenticated broker fetch (or from their own sealed snapshot on resume).
  plan_.key_broker_public = broker_identity.public_key;
  // Drawn whether or not the broker is local, preserving the global draw order that
  // keeps per-role RNGs identical across the processes of a deployment.
  crypto::SecureRng broker_rng(setup_rng.NextBytes(32));
  if (broker_local_) {
    // expected_parties = 0: the broker serves (and re-serves) until the job stops it
    // after the ready barrier — under fault injection a party may need a re-serve after
    // every party has already been served once.
    key_broker_ = std::make_unique<KeyBroker>(
        material, broker_identity, 0, *transport_, std::move(broker_rng),
        durability(KeyBroker::kEndpointName,
                   resume_roles ? ResumePoint::Newest() : ResumePoint::Fresh()));
  }
  material_ = material;

  // --- Aggregator nodes (threads created at Run) ---
  for (size_t j = 0; j < plan_.aggregator_names.size(); ++j) {
    const std::string& name = plan_.aggregator_names[j];
    crypto::SecureRng agg_rng(setup_rng.NextBytes(32));  // drawn even for remote roles
    if (RoleIsLocal(name)) {
      aggregators_.push_back(std::make_unique<DetaAggregator>(
          plan_, name, cvms_[j], durability(name, role_resume), *transport_,
          std::move(agg_rng)));
    }
  }

  // --- Party nodes ---
  // Each party moves its copy into its own global parameters.
  std::vector<float> initial = global_model_->GetFlatParams();
  for (const std::string& name : plan_.party_names) {
    crypto::SecureRng party_rng(setup_rng.NextBytes(32));  // drawn even for remote roles
    if (!RoleIsLocal(name)) {
      continue;
    }
    // Find this role's trainer: positional in the classic all-local shape, by name when
    // the deployment hands this process a subset.
    std::unique_ptr<fl::Party> local;
    for (auto& candidate : parties) {
      if (candidate != nullptr && candidate->name() == name) {
        local = std::move(candidate);
        break;
      }
    }
    DETA_CHECK_MSG(local != nullptr, "no local trainer supplied for hosted party " << name);
    deta_parties_.push_back(std::make_unique<DetaParty>(plan_, std::move(local), initial,
                                                        durability(name, role_resume),
                                                        *transport_, std::move(party_rng)));
  }
  revive_rng_ = crypto::SecureRng(setup_rng.NextBytes(32));
  construct_seconds_ = setup_watch_.ElapsedSeconds();
}

const Transform& DetaJob::transform() const {
  std::call_once(transform_once_, [this] { transform_ = material_.BuildTransform(); });
  return *transform_;
}

bool DetaJob::RoleIsLocal(const std::string& role) const {
  if (deployment_.local_roles.empty()) {
    return true;
  }
  return std::find(deployment_.local_roles.begin(), deployment_.local_roles.end(),
                   role) != deployment_.local_roles.end();
}

Bytes DetaJob::ConfigDigest() const {
  net::Writer w;
  w.WriteString("deta-job-config-v1");
  w.WriteU64(options_.seed);
  w.WriteString(options_.algorithm);
  w.WriteU32(options_.use_paillier ? 1 : 0);
  w.WriteU32(static_cast<uint32_t>(plan_.party_names.size()));
  w.WriteU32(static_cast<uint32_t>(deta_.num_aggregators));
  w.WriteU32(deta_.enable_partition ? 1 : 0);
  w.WriteU32(deta_.enable_shuffle ? 1 : 0);
  // rounds/threads deliberately excluded: a resumed run may extend the round count, and
  // numeric results are thread-count-invariant by construction.
  return crypto::Sha256Digest(w.Take());
}

void DetaJob::SaveJobState(int round, const std::vector<float>& params,
                           double cumulative) {
  if (store_ == nullptr) {
    return;
  }
  persist::Snapshot snapshot;
  snapshot.role = "job";
  snapshot.round = round;
  snapshot.AddFloats(persist::SectionType::kModelParams, "params", params);
  net::Writer w;
  w.WriteDouble(cumulative);
  snapshot.Add(persist::SectionType::kRaw, "observer", w.Take());
  snapshot.Add(persist::SectionType::kRaw, "config", ConfigDigest());
  if (!store_->Write(snapshot)) {
    LOG_WARNING << "DeTA job: job snapshot write failed for round " << round;
  }
}

template <typename Fn>
void DetaJob::ForEachLocalRole(const Fn& fn) {
  if (key_broker_ != nullptr) {
    fn(key_broker_);
  }
  for (auto& agg : aggregators_) {
    fn(agg);
  }
  for (auto& party : deta_parties_) {
    fn(party);
  }
}

void DetaJob::ReviveCrashedRoles(net::Endpoint& observer, bool job_started) {
  // One path for every role: a crashed role builds its replacement, which restores its
  // newest snapshot and does not crash again.
  ForEachLocalRole([&](auto& role) {
    if (!role->crashed()) {
      return;
    }
    role = role->Revive(crypto::SecureRng(revive_rng_.NextBytes(32)));
    role->Start();
    DETA_COUNTER("persist.role_revived").Increment();
    LOG_INFO << "DeTA job: revived " << role->name() << " from snapshot";
    if (job_started && role->name() == plan_.initiator()) {
      // The revived initiator owns the round protocol again but starts idle; a fresh
      // job.start makes it resume collecting at last_aggregated_round + 1.
      observer.Send(role->name(), kJobStart, {});
    }
  });
}

void DetaJob::ShutdownAggregators(net::Endpoint& observer) {
  for (const std::string& name : plan_.aggregator_names) {
    observer.Send(name, kShutdown, {});
  }
}

void DetaJob::ShutdownAll(net::Endpoint& observer) {
  ShutdownAggregators(observer);
  for (const std::string& name : plan_.party_names) {
    observer.Send(name, kShutdown, {});
  }
  // The message alone cannot interrupt a party blocked in mid-round result collection
  // (selective receive stashes it); closing the mailbox can.
  ForEachLocalRole([](auto& role) { role->Stop(); });
  StopBroker(observer);
}

void DetaJob::StopBroker(net::Endpoint& observer) {
  if (key_broker_ != nullptr) {
    key_broker_->Stop();
  } else if (!broker_local_ && !remote_broker_stopped_) {
    observer.Send(KeyBroker::kEndpointName, kShutdown, {});
    remote_broker_stopped_ = true;
  }
}

// Worker-process path: no observer loop — start the hosted roles and wait for them to
// run the protocol to completion (parties end after their final round; aggregators and
// the broker end on the shutdown the observer's process sends them over the transport).
fl::JobResult DetaJob::RunWorker() {
  const telemetry::TelemetrySnapshot telemetry_start = telemetry::Snapshot();
  ForEachLocalRole([](auto& role) { role->Start(); });
  fl::JobResult result;
  result.setup_seconds = construct_seconds_;
  ForEachLocalRole([](auto& role) { role->Join(); });
  for (auto& party : deta_parties_) {
    if (!party->setup_ok()) {
      result.status = fl::JobStatus::kSetupFailed;
      result.error = "party " + party->name() + " failed setup";
    }
  }
  if (!deta_parties_.empty()) {
    result.final_params = deta_parties_.front()->final_params();
  }
  result.telemetry = telemetry::Delta(telemetry_start, telemetry::Snapshot());
  return result;
}

fl::JobResult DetaJob::Run() {
  // A requested resume that found no usable/matching job snapshot is a typed failure —
  // never a silent fresh start that would overwrite the snapshots it failed to read.
  if (resume_failed_) {
    fl::JobResult result;
    result.status = fl::JobStatus::kSetupFailed;
    result.error = resume_error_;
    LOG_ERROR << "DeTA job: " << result.error;
    return result;
  }

  // Applies to the aggregator/party threads about to start: concurrent parallel regions
  // (several aggregators aggregating at once) degrade gracefully to serial chunks with
  // identical results — see common/parallel.h.
  parallel::SetDefaultThreads(options_.threads);

  // Per-run telemetry is a Delta over the process-global registry, so concurrent runs in
  // one process would bleed into each other — tests run jobs one at a time.
  const telemetry::TelemetrySnapshot telemetry_start = telemetry::Snapshot();
  auto finish_telemetry = [&](fl::JobResult& r) {
    r.telemetry = telemetry::Delta(telemetry_start, telemetry::Snapshot());
  };

  // Fault injection covers the protocol fabric only: the observer is the measurement
  // harness, so its reports (and its control messages) are exempted — a "dropped" timing
  // report would be a harness bug, not a protocol fault.
  if (options_.fault_plan.enabled()) {
    net::FaultPlan plan = options_.fault_plan;
    plan.immune.insert(kObserver);
    transport_->SetFaultPlan(plan);
    LOG_INFO << "DeTA job: fault injection enabled (seed " << plan.seed << ")";
  }

  // Worker processes of a multi-process deployment host roles but no measurement loop.
  if (!observer_local_) {
    return RunWorker();
  }

  auto observer = transport_->CreateEndpoint(kObserver);
  ForEachLocalRole([](auto& role) { role->Start(); });

  fl::JobResult result;
  result.resumed_from_round = resume_round_;

  // The observer doubles as the supervisor: each wait below receives in ticks of at most
  // Role::kTickMs and revives crashed roles between them (a no-op when none crashed),
  // so a crash stalls a phase for one tick instead of its full timeout. |receive| takes
  // the tick's timeout; the wait returns the first message, or nullopt at |deadline|.
  auto supervised_wait = [&](Clock::time_point deadline, bool job_started,
                             const auto& receive) -> std::optional<net::Message> {
    for (;;) {
      ReviveCrashedRoles(*observer, job_started);
      auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                        Clock::now());
      if (left.count() <= 0) {
        return std::nullopt;
      }
      std::optional<net::Message> m =
          receive(static_cast<int>(std::min<int64_t>(left.count(), Role::kTickMs)));
      if (m.has_value()) {
        return m;
      }
    }
  };

  // Bounded ready barrier: every party (local or remote) reports the outcome of
  // verification + registration, or the barrier times out. Either failure is a typed
  // result, not a hang.
  for (size_t i = 0; i < plan_.party_names.size(); ++i) {
    std::optional<net::Message> m = supervised_wait(
        Clock::now() + std::chrono::milliseconds(options_.setup_timeout_ms),
        /*job_started=*/false,
        [&](int ms) { return observer->ReceiveTypeFor(kPartyReady, ms); });
    if (!m.has_value()) {
      result.status = fl::JobStatus::kSetupFailed;
      result.error = "timed out waiting for party readiness";
    } else if (m->payload.empty() || m->payload[0] != 1) {
      result.status = fl::JobStatus::kSetupFailed;
      result.error = "party " + m->from + " failed setup";
    } else {
      continue;
    }
    LOG_ERROR << "DeTA job: " << result.error;
    ShutdownAll(*observer);
    finish_telemetry(result);
    return result;
  }
  LOG_INFO << "DeTA job: all " << plan_.party_names.size()
           << " parties verified and registered with " << plan_.aggregator_names.size()
           << " aggregators";
  StopBroker(*observer);  // every party holds the material once it reports ready
  // Attestation, handshakes and the ready barrier are one-time setup; the paper's
  // latency curves measure training rounds only, so setup is reported separately. It
  // ends here, not at the job-start ack: the initiator sends round 1's round.begin to
  // the parties before it acks.
  result.setup_seconds = setup_watch_.ElapsedSeconds();

  // Acked job start, retransmitted on the plan's retry schedule, so a stalled initiator
  // is a typed error instead of a silent hang. (Observer traffic is exempt from fault
  // injection, so this succeeds first try when the initiator is healthy.) A job.start
  // sent to a crashed initiator is lost; the wait's next tick revives it and re-sends
  // job.start. A resumed job with no round left starts nothing: the shutdown ends its
  // aggregators here, and its parties end after setup.
  if (resume_round_ >= plan_.rounds) {
    ShutdownAggregators(*observer);
  } else {
    const std::string& initiator = plan_.initiator();
    bool job_started = false;
    for (int attempt = 0; !job_started && attempt < plan_.retry.max_attempts; ++attempt) {
      observer->Send(initiator, kJobStart, {});
      Clock::time_point attempt_deadline =
          Clock::now() + std::chrono::milliseconds(plan_.retry.TimeoutForAttempt(attempt));
      job_started = supervised_wait(attempt_deadline, /*job_started=*/true, [&](int ms) {
                      return observer->ReceiveMatchFor(kJobStartAck, initiator, ms);
                    }).has_value();
    }
    if (!job_started) {
      result.status = fl::JobStatus::kStalled;
      result.error = "initiator " + initiator + " did not ack job start";
      ShutdownAll(*observer);
      finish_telemetry(result);
      return result;
    }
  }

  const LatencyModel& lm = options_.latency;
  double cumulative = resume_cumulative_;

  // Per-round report collection, tolerant of cross-round interleaving and dropouts. A
  // round's record is erased once the round is evaluated.
  std::map<int, RoundRecord> records;

  // On whole-job resume the constructor loaded the job snapshot's params into the global
  // model, so this is the restored consistent cut (and already the final params if the
  // requested round count was reached before the crash).
  std::vector<float> last_params = global_model_->GetFlatParams();
  if (resume_round_ > 0) {
    result.final_params = last_params;
  }

  // Worst case for one round under faults: an aggregator runs to its collection
  // deadline, parties spend their whole retry budget, plus scheduling slack.
  const int round_budget_ms =
      2 * plan_.round_timeout_ms + plan_.retry.TotalBudgetMs() + 5000;

  for (int round = resume_round_ + 1; round <= plan_.rounds && result.ok(); ++round) {
    telemetry::Span round_span("core.deta_job.round");
    WallStopwatch round_wall;
    Clock::time_point deadline = Clock::now() + std::chrono::milliseconds(round_budget_ms);
    // Map nodes are stable: later rounds' records do not move this one.
    RoundRecord& record = records[round];
    // A round already evaluated has no record: its late reports are dropped.
    auto record_of = [&](int rd) { return rd < round ? nullptr : &records[rd]; };
    // The final round also waits for every party's own report: one the record counts
    // only as missing from an aggregation may still be re-uploading for a lost result,
    // and the shutdown below ends the aggregators that would re-serve it. The wait lasts
    // at most twice the retry cap past the complete record, which outlasts a party's
    // longest gap between two re-sends.
    std::optional<Clock::time_point> final_wait_end;
    while (result.ok()) {
      if (record.Complete(plan_)) {
        if (round < plan_.rounds || record.reported.size() >= plan_.party_names.size()) {
          break;
        }
        if (!final_wait_end.has_value()) {
          final_wait_end =
              Clock::now() + std::chrono::milliseconds(2 * plan_.retry.max_timeout_ms);
        }
      }
      std::optional<net::Message> m =
          supervised_wait(final_wait_end.value_or(deadline), /*job_started=*/true,
                          [&](int ms) { return observer->ReceiveFor(ms); });
      if (!m.has_value()) {
        if (final_wait_end.has_value()) {
          break;  // the record is complete; the silent party is not coming
        }
        result.status = fl::JobStatus::kStalled;
        result.error = "no progress in round " + std::to_string(round) + " within " +
                       std::to_string(round_budget_ms) + "ms";
        break;
      }
      // A report that does not parse is dropped: each is read whole before it counts.
      DropIfMalformed(kObserver, *m, [&] {
        net::Reader r(m->payload);
        if (m->type == kPartyTiming) {
          int rd = static_cast<int>(r.ReadU32());
          double train_s = r.ReadDouble();
          double trans_s = r.ReadDouble();
          uint64_t bytes = r.ReadU64();
          double rtt_s = r.ReadDouble();
          if (RoundRecord* rec = record_of(rd)) {
            rec->accounted.insert(m->from);
            rec->reported.insert(m->from);
            rec->timings.push_back({train_s, trans_s});
            rec->rtts.push_back(rtt_s);
            rec->upload_bytes = std::max(rec->upload_bytes, bytes);
          }
        } else if (m->type == kAggReport) {
          int rd = static_cast<int>(r.ReadU32());
          double agg_s = r.ReadDouble();
          uint64_t bytes = r.ReadU64();
          std::set<std::string> missing;
          for (uint32_t i = 0, n = r.ReadU32(); i < n; ++i) {
            missing.insert(r.ReadString());
          }
          if (RoundRecord* rec = record_of(rd)) {
            rec->agg_reports.push_back({agg_s, bytes});
            rec->accounted.insert(missing.begin(), missing.end());
            rec->dropouts.insert(missing.begin(), missing.end());
          }
        } else if (m->type == kPartyReport) {
          int rd = static_cast<int>(r.ReadU32());
          std::vector<float> params = r.ReadFloatVector();
          if (RoundRecord* rec = record_of(rd)) {
            rec->params = std::move(params);
          }
        } else if (m->type == kPartyRoundSkipped) {
          int rd = static_cast<int>(r.ReadU32());
          LOG_WARNING << "observer: party " << m->from << " skipped round " << rd;
          if (RoundRecord* rec = record_of(rd)) {
            rec->accounted.insert(m->from);
            rec->reported.insert(m->from);
            rec->dropouts.insert(m->from);
            rec->reporter_skipped = rec->reporter_skipped || m->from == plan_.reporter();
          }
        } else if (m->type == kAggFailed) {
          int rd = static_cast<int>(r.ReadU32());
          int have = static_cast<int>(r.ReadU32());
          int need = static_cast<int>(r.ReadU32());
          result.status = fl::JobStatus::kQuorumFailed;
          result.error = "aggregator " + m->from + " failed quorum in round " +
                         std::to_string(rd) + " (" + std::to_string(have) + "/" +
                         std::to_string(need) + " fragments)";
        } else if (m->type == kJobStartAck) {
          // Ack for the job.start kick sent to a revived initiator; nothing to do.
        } else {
          LOG_WARNING << "observer: unexpected message " << m->type;
        }
      });
    }
    if (!result.ok()) {
      LOG_ERROR << "DeTA job: " << result.error;
      break;
    }
    if (round == plan_.rounds) {
      // The job's last reports are in: end the aggregators before the evaluation, so the
      // shutdown also acks each follower's last round.done before its first re-send.
      ShutdownAggregators(*observer);
    }

    // --- latency model for this round (see common/sim_clock.h) ---
    double party_phase = 0.0;
    for (const auto& [train_s, trans_s] : record.timings) {
      party_phase = std::max(party_phase, train_s + trans_s);
    }
    party_phase += lm.TransferSeconds(record.upload_bytes);  // parallel uploads: max size
    double agg_phase = 0.0;
    uint64_t down_bytes = 0;
    for (const auto& [agg_s, bytes] : record.agg_reports) {
      agg_phase = std::max(agg_phase, agg_s);
      down_bytes = std::max(down_bytes, bytes);
    }
    agg_phase *= (1.0 + lm.sev_compute_overhead);
    if (plan_.aggregator_names.size() > 1) {
      agg_phase += lm.rtt_seconds;  // initiator/follower round.done sync
    }
    double round_latency = party_phase + agg_phase + lm.TransferSeconds(down_bytes);
    DETA_COUNTER("core.deta_job.rounds").Increment();
    DETA_HISTOGRAM("core.deta_job.round_latency_s", ::deta::telemetry::Unit::kSeconds)
        .Record(round_latency);

    // --- evaluation on the reporter's merged global model (or, if the reporter sat
    // this round out, its last synchronized state) ---
    if (record.params.has_value()) {
      last_params = std::move(*record.params);
    }
    global_model_->SetFlatParams(last_params);
    fl::RoundMetrics m;
    m.round = round;
    nn::Evaluation evaluation =
        nn::Evaluate(*global_model_, eval_.images, eval_.labels, eval_.classes);
    m.loss = evaluation.loss;
    m.accuracy = evaluation.accuracy;
    m.round_latency_s = round_latency;
    cumulative += round_latency;
    m.cumulative_latency_s = cumulative;
    m.wall_seconds = round_wall.ElapsedSeconds();
    m.party_rtts_s = std::move(record.rtts);
    std::sort(m.party_rtts_s.begin(), m.party_rtts_s.end());
    result.rounds.push_back(m);
    if (!record.dropouts.empty()) {
      result.per_round_dropouts[round] =
          std::vector<std::string>(record.dropouts.begin(), record.dropouts.end());
    }
    LOG_INFO << "DeTA round " << round << ": loss=" << m.loss << " acc=" << m.accuracy
             << " latency=" << m.cumulative_latency_s << "s"
             << (record.dropouts.empty()
                     ? ""
                     : " dropouts=" + std::to_string(record.dropouts.size()));

    result.final_params = last_params;
    SaveJobState(round, last_params, cumulative);
    records.erase(round);
  }

  // On failure, release every thread still waiting on protocol traffic; on success the
  // aggregators already have their shutdown and parties end after their final round.
  if (!result.ok()) {
    ShutdownAll(*observer);
  }
  StopBroker(*observer);
  ForEachLocalRole([](auto& role) { role->Join(); });
  // Snapshot after every node thread has joined, so all their metric writes are folded in.
  finish_telemetry(result);
  return result;
}

std::string JobShapeError(const fl::ExecutionOptions& options, const DetaOptions& deta,
                          size_t num_parties) {
  if (num_parties == 0) {
    return "a job needs at least one party";
  }
  if (deta.num_aggregators <= 0) {
    return "a job needs at least one aggregator, not " +
           std::to_string(deta.num_aggregators);
  }
  // A quorum above the party count would leave every round to fail at its deadline.
  if (deta.quorum < 0 || static_cast<size_t>(deta.quorum) > num_parties) {
    return "quorum " + std::to_string(deta.quorum) + " outside [0, " +
           std::to_string(num_parties) + "]";
  }
  // Aggregators sum Paillier ciphertexts: homomorphic averaging is the only algorithm
  // they can run, so any other would be named (in the CVM image, the job digest) but
  // not run.
  if (options.use_paillier && options.algorithm != "iterative_averaging") {
    return "Paillier fusion runs iterative_averaging, not " + options.algorithm;
  }
  return "";
}

fl::JobResult RunCentralizedBaseline(fl::ExecutionOptions options,
                                     std::vector<std::unique_ptr<fl::Party>> parties,
                                     const fl::ModelFactory& global_factory,
                                     data::Dataset eval) {
  DetaOptions central;
  central.num_aggregators = 1;
  central.enable_partition = false;
  central.enable_shuffle = false;
  options.latency.sev_compute_overhead = 0.0;
  return DetaJob(std::move(options), central, std::move(parties), global_factory,
                 std::move(eval))
      .Run();
}

}  // namespace deta::core
