// The training-job API: one options struct and one result struct for every run of
// core::DetaJob, including the centralized baseline built on it
// (core::RunCentralizedBaseline). The result is returned by value, so no job needs
// stateful post-run getters.
#ifndef DETA_FL_JOB_API_H_
#define DETA_FL_JOB_API_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/telemetry.h"
#include "fl/party.h"
#include "net/fault.h"
#include "net/retry.h"

namespace deta::fl {

struct RoundMetrics {
  int round = 0;
  double loss = 0.0;
  double accuracy = 0.0;
  double round_latency_s = 0.0;       // simulated seconds for this round
  double cumulative_latency_s = 0.0;  // running total
  // Real wall-clock seconds the observer spent collecting this round (scale-harness
  // throughput; unlike round_latency_s this includes actual transport time).
  double wall_seconds = 0.0;
  // Per-party upload round-trips (send fragments -> last aggregated result back), as
  // reported in each party's timing message. Feeds the scale harness's p50/p99 tails.
  std::vector<double> party_rtts_s;
};

// Durable checkpoint/resume knobs (src/persist/). With |dir| empty, nothing is
// persisted and |resume| is ignored.
struct CheckpointOptions {
  // Directory for role snapshots; created on demand. Each role writes its own
  // "<role>.g<generation>.snap" files after every round; the job driver writes a "job"
  // snapshot that anchors whole-job resume. The store keeps each role's newest three.
  std::string dir;
  // Resume a previous run from the newest verifiable job snapshot in |dir| instead of
  // starting fresh. The job configuration (seed, topology, algorithm) must match the
  // one that wrote the snapshot.
  bool resume = false;
};

// Execution knobs common to every training deployment. Deployment-specific settings
// (aggregator count, partitioning, shuffling) live in core::DetaOptions.
struct ExecutionOptions {
  int rounds = 10;
  TrainConfig train;
  std::string algorithm = "iterative_averaging";
  // When set, updates travel Paillier-encrypted and the algorithm is homomorphic
  // averaging (the paper's "Paillier" configuration).
  bool use_paillier = false;
  size_t paillier_modulus_bits = 256;
  LatencyModel latency;
  uint64_t seed = 7;
  // Worker threads for the deterministic parallel layer (common/parallel.h); 0 = one per
  // hardware core. Numeric results are bitwise-identical for any value.
  int threads = 0;
  // Seeded fault injection for the protocol fabric. Disabled by default; the observer
  // endpoint is always exempted, so measurement reports are never faulted.
  net::FaultPlan fault_plan;
  // Retransmission pacing for every bounded protocol wait (handshakes, uploads,
  // round synchronization).
  net::RetryPolicy retry;
  // Per-round deadline at each aggregator for collecting party uploads. Must exceed
  // retry.TotalBudgetMs() or retransmissions cannot finish inside the round.
  int round_timeout_ms = 10000;
  // Deadline for the setup barrier (attestation, verification, registration) per party.
  int setup_timeout_ms = 30000;
  // Durable checkpoint/resume (disabled unless checkpoint.dir is set).
  CheckpointOptions checkpoint;
};

// How a training run ended. Anything but kOk means the run degraded past what the
// protocol's retries and quorum rules could absorb.
enum class JobStatus {
  kOk = 0,
  kSetupFailed,   // a party failed verification/registration or the barrier timed out
  kQuorumFailed,  // an aggregator's round deadline expired below its minimum quorum
  kStalled,       // no observable progress within the observer's per-round deadline
};

inline const char* JobStatusName(JobStatus status) {
  switch (status) {
    case JobStatus::kOk:
      return "ok";
    case JobStatus::kSetupFailed:
      return "setup_failed";
    case JobStatus::kQuorumFailed:
      return "quorum_failed";
    case JobStatus::kStalled:
      return "stalled";
  }
  return "unknown";
}

// Everything a training run produced.
struct JobResult {
  std::vector<RoundMetrics> rounds;
  std::vector<float> final_params;
  // One-time pre-training setup, reported separately from round latency: wall time from
  // the start of DetaJob construction until the observer starts round 1 (job.start),
  // covering attestation and token provisioning, the key-broker fetch, every party
  // handshake and the ready barrier. A worker process of a multi-process deployment has
  // no barrier and reports its constructor's wall time. 0 when the barrier failed.
  double setup_seconds = 0.0;
  JobStatus status = JobStatus::kOk;
  // Human-readable failure description; empty when status == kOk.
  std::string error;
  // round -> sorted party names absent from that round: parties missing from at least
  // one aggregator's aggregation, parties that skipped the round (unresponsive
  // aggregators), and parties that failed outright.
  std::map<int, std::vector<std::string>> per_round_dropouts;
  // Telemetry accumulated by *this run* (a Delta of the process-global registry between
  // job start and end). Counter values are thread-count-invariant on fault-free runs;
  // duration histograms are not (see DESIGN.md "Observability").
  telemetry::TelemetrySnapshot telemetry;
  // Round the run resumed from (0 = started fresh). With checkpoint.resume, `rounds`
  // holds only the newly executed rounds [resumed_from_round+1, rounds].
  int resumed_from_round = 0;

  bool ok() const { return status == JobStatus::kOk; }
};

}  // namespace deta::fl

#endif  // DETA_FL_JOB_API_H_
