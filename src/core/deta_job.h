// End-to-end DeTA training job — the full Figure 1 life cycle:
//   (1)-(2) launch SEV platforms and paused aggregator CVMs; the attestation proxy
//           verifies each against the RAS and provisions auth tokens,
//   (3)     parties verify all aggregators (challenge/response) and register,
//   (4)     inter-aggregator synchronization (initiator/follower round protocol),
//   (5)-(6) per-round Trans / upload / aggregate / download / Trans^-1.
//
// The job builds one JobPlan (core/role.h) — rosters, round count, quorum, deadlines,
// retry policy, algorithm and keys — identically in every process of a deployment, and
// every aggregator and party reads it. They run on real threads and communicate only via
// the message bus. The job's main thread acts as the evaluation observer (kObserver): it
// keeps one record per round of the parties heard from (by timing or by skip) or missing
// from an aggregation, each counted once, and of the aggregators' reports, and it
// evaluates the reporter's merged global model (all parties hold identical copies) unless
// the reporter itself skipped the round. A report for a round already recorded is
// dropped. From the records come the per-round loss/accuracy/latency metrics.
//
// The observer is also the one place a successful job ends. Once the final round's
// record is complete and every party has reported that round itself (or twice the retry
// cap has passed since the record completed), it sends shutdown to each aggregator; a
// resumed job with no round left sends it right after the ready barrier. Parties end on
// their own after their final round.
//
// The centralized FFL baseline (RunCentralizedBaseline below) is this same engine in a
// one-aggregator shape, so the Figure 5-7 comparisons measure both systems the same way.
#ifndef DETA_CORE_DETA_JOB_H_
#define DETA_CORE_DETA_JOB_H_

#include <memory>
#include <mutex>

#include "cc/attestation_proxy.h"
#include "common/sim_clock.h"
#include "core/deta_aggregator.h"
#include "core/deta_party.h"
#include "core/key_broker.h"
#include "core/transform.h"
#include "fl/job_api.h"
#include "net/message_bus.h"
#include "persist/state_store.h"

namespace deta::core {

// Deployment shape of the decentralized aggregation layer. Execution knobs shared with
// the centralized baseline (rounds, training, algorithm, Paillier, latency, seed,
// threads) come from fl::ExecutionOptions instead.
struct DetaOptions {
  int num_aggregators = 3;
  std::vector<double> proportions;  // optional custom partition proportions
  bool enable_partition = true;
  bool enable_shuffle = true;
  size_t permutation_key_bits = 128;
  // Aggregate as soon as this many party fragments arrive (0 = all parties; at most the
  // party count). A round deadline with fewer fragments is a quorum failure.
  int quorum = 0;
};

// Where this DetaJob instance's roles run. The default (all fields empty) is the
// classic single-process deployment: the job owns an in-proc MessageBus and hosts every
// role. Multi-process deployments give each process the same options/seed plus a
// Transport backed by real sockets and the subset of roles it hosts; the setup RNG draw
// order is preserved across processes, so shared material (transform, Paillier keys,
// auth tokens) derives identically everywhere.
struct DetaDeployment {
  // External transport (not owned). Null = job-owned in-proc MessageBus.
  net::Transport* transport = nullptr;
  // Role names this process hosts: kObserver, KeyBroker::kEndpointName, aggregator
  // names ("aggregator0"...), party names. Empty = every role is local.
  std::vector<std::string> local_roles;
  // Full party roster for multi-process jobs, in global order; |parties| then holds
  // trainers for the local subset only. Empty = the roster is exactly |parties|.
  std::vector<std::string> party_names;
};

class DetaJob {
 public:
  DetaJob(fl::ExecutionOptions options, DetaOptions deta,
          std::vector<std::unique_ptr<fl::Party>> parties,
          const fl::ModelFactory& global_factory, data::Dataset eval,
          DetaDeployment deployment = {});

  // Runs the full life cycle; returns per-round metrics, the final global parameters,
  // and setup time (attestation, key-broker fetch, party handshakes and the ready
  // barrier — one-time cost reported separately from round latency, matching the
  // paper's measurement boundary).
  fl::JobResult Run();

  // Post-run access for the security experiments: the aggregator CVMs (breachable) and
  // the transform (party-held secret state). The first transform() call derives it
  // from the retained key-broker material.
  const std::vector<std::shared_ptr<cc::Cvm>>& aggregator_cvms() const { return cvms_; }
  const Transform& transform() const;

 private:
  // True when |role| runs in this process (deployment.local_roles empty = all local).
  bool RoleIsLocal(const std::string& role) const;
  // Applies |fn| to the owning pointer of each role this process hosts: the key broker,
  // the aggregators, then the parties.
  template <typename Fn>
  void ForEachLocalRole(const Fn& fn);
  fl::JobResult RunWorker();
  // Stops the key broker: directly when local, via a kShutdown message otherwise.
  void StopBroker(net::Endpoint& observer);
  // Sends shutdown to every aggregator, local or remote: how a successful job ends.
  void ShutdownAggregators(net::Endpoint& observer);
  // Fans out shutdown to every aggregator and party, closes the local roles' endpoints
  // and stops the broker, so failure paths leave no thread waiting on a message that
  // will never come.
  void ShutdownAll(net::Endpoint& observer);
  // Crash-fault orchestration: replaces every role whose injected crash fired with the
  // replacement it builds (Revive), resumed from its newest snapshot. The revived role
  // rejoins the in-flight run (re-registering where needed); no-op when nothing crashed.
  void ReviveCrashedRoles(net::Endpoint& observer, bool job_started);
  // Binds a job snapshot to the options that wrote it, so a resume under a different
  // topology/seed is rejected instead of silently diverging.
  Bytes ConfigDigest() const;
  // Writes the job-level snapshot (global params + observer accumulators) for round |r|.
  void SaveJobState(int round, const std::vector<float>& params, double cumulative);

  // Started first, so it spans all of construction; JobResult::setup_seconds.
  WallStopwatch setup_watch_;
  fl::ExecutionOptions options_;
  DetaOptions deta_;
  DetaDeployment deployment_;
  std::unique_ptr<nn::Model> global_model_;
  data::Dataset eval_;

  net::MessageBus bus_;
  // The transport every role endpoint is created on: &bus_ or deployment_.transport.
  net::Transport* transport_ = nullptr;
  // Shared by every role; declared before them, as one still running when the job is
  // destroyed (a failure path returned early) writes to the store and reads the plan
  // until its destructor stops it. The plan's rosters are the full ones; the local object
  // vectors below hold only this process's subset.
  std::unique_ptr<persist::StateStore> store_;
  JobPlan plan_;
  bool observer_local_ = true;
  bool broker_local_ = true;
  bool remote_broker_stopped_ = false;
  std::unique_ptr<cc::RemoteAttestationService> ras_;
  std::vector<std::unique_ptr<cc::SevPlatform>> platforms_;
  std::vector<std::shared_ptr<cc::Cvm>> cvms_;
  std::unique_ptr<cc::AttestationProxy> proxy_;
  std::unique_ptr<KeyBroker> key_broker_;
  // Built by the first transform() call.
  mutable std::once_flag transform_once_;
  mutable std::shared_ptr<const Transform> transform_;
  std::vector<std::unique_ptr<DetaAggregator>> aggregators_;
  std::vector<std::unique_ptr<DetaParty>> deta_parties_;
  // Wall time of construction, the setup a worker process without the barrier reports.
  double construct_seconds_ = 0.0;

  // --- durability / crash-fault orchestration state ---
  // The key-broker material, retained so transform() can be built on demand.
  TransformMaterial material_;
  // Reseeded from setup entropy at the end of construction; the placeholder seed is
  // never drawn from (SecureRng has no default constructor).
  crypto::SecureRng revive_rng_{StringToBytes("deta-job-revive-placeholder")};
  // Whole-job resume (checkpoint.resume): round of the job snapshot all roles restore
  // to, plus the observer accumulators restored from it.
  int resume_round_ = 0;
  double resume_cumulative_ = 0.0;
  bool resume_failed_ = false;
  std::string resume_error_;
};

// Why DetaJob would refuse a job of |num_parties| parties run with |options| and |deta|,
// or "" when it accepts it. The job checks it on construction; command-line drivers
// check it first (RejectJobShape in core/cluster.h), so flags that describe such a job
// exit 2 before anything trains or spawns.
std::string JobShapeError(const fl::ExecutionOptions& options, const DetaOptions& deta,
                          size_t num_parties);

// The paper's baseline, "FFL with one central aggregator" (§7): a DetaJob with a single
// aggregator that receives every party's full, in-order update (partitioning and
// shuffling off). Parties still fetch their (identity) transform material and any
// Paillier key from the key broker, which stops at the ready barrier, so no round
// carries broker work. The aggregator is a plain server rather than a CVM, so its
// compute carries no SEV overhead in the latency model. Checkpoint/resume, fault
// injection and telemetry behave exactly as for any other DetaJob.
fl::JobResult RunCentralizedBaseline(fl::ExecutionOptions options,
                                     std::vector<std::unique_ptr<fl::Party>> parties,
                                     const fl::ModelFactory& global_factory,
                                     data::Dataset eval);

}  // namespace deta::core

#endif  // DETA_CORE_DETA_JOB_H_
