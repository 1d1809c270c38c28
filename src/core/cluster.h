// Multi-process DeTA deployment: one ClusterSpec describes a whole job (topology,
// workload, transport, fault knobs); every process of the cluster — the parent hosting
// the registry + observer and one child per aggregator/party/key-broker role — parses
// the same spec and derives identical job state from it (same seed, same setup RNG
// draw order, same synthetic shards), so the distributed run is bitwise-identical to
// the equivalent single-process job.
//
// The spec round-trips through --key=value flags (ToArgs/FromFlags) so the parent can
// re-exec itself for each child role, and loads from a flat `key = value` TOML file
// (ParseTomlFile) for scripted deployments. ParseFlags, the one command-line parser of
// every program, rejects keys the program does not read. The builders below are shared
// with the scale harness (bench/scale_parties.cc) and the transport conformance tests,
// which is what anchors the "same spec => same bits on any backend" guarantee.
#ifndef DETA_CORE_CLUSTER_H_
#define DETA_CORE_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <sys/types.h>

#include "core/deta_job.h"

namespace deta::core {

struct ClusterSpec {
  int parties = 8;
  int aggregators = 3;
  int rounds = 3;
  uint64_t seed = 1234;
  std::string algorithm = "iterative_averaging";
  bool use_paillier = false;

  // Workload: synthetic blob-MNIST shards over a tiny MLP (the protocol fabric is the
  // system under test here, not the model).
  int examples_per_party = 32;
  int eval_examples = 64;
  int image_size = 14;
  int batch_size = 16;
  int local_epochs = 1;
  double lr = 0.1;

  // Per-process worker threads for the deterministic parallel layer (results are
  // thread-count-invariant; 1 keeps a many-process cluster from oversubscribing).
  int threads = 1;
  int round_timeout_ms = 60000;
  int setup_timeout_ms = 120000;
  // Retransmission policy, more patient than the protocol default (more attempts, a
  // higher cap): when hundreds of party threads contend for a few cores, or a sanitizer
  // build slows every step, a handshake reply can legitimately take seconds.
  int retry_attempts = 10;
  int retry_initial_timeout_ms = 250;
  int retry_max_timeout_ms = 8000;

  // Transport: the parent hosts the TCP name registry on this host/port (0 = pick a
  // free port and pass the bound address to the children).
  std::string listen_host = "127.0.0.1";
  int registry_port = 0;

  // Per-role telemetry JSON is written to "<telemetry_dir>/<role>.json" ("" = off).
  std::string telemetry_dir;

  // Seeded message-fault injection, installed identically in every process.
  double drop_probability = 0.0;
  uint64_t fault_seed = 42;

  std::vector<std::string> PartyNames() const;
  std::vector<std::string> AggregatorNames() const;
  // Child roles the parent spawns: aggregators, parties, then the key broker.
  std::vector<std::string> ChildRoles() const;

  // Flag round-trip: ToArgs() emits exactly the --key=value pairs FromFlags() reads.
  std::vector<std::string> ToArgs() const;
  static ClusterSpec FromFlags(const std::map<std::string, std::string>& flags);

  bool operator==(const ClusterSpec&) const = default;
};

// Flat `key = value` TOML subset (comments, quoted strings, ints, floats, bools;
// section headers are rejected). Parsed pairs merge into |out| without overwriting
// existing keys, so command-line flags win over the file. False + |error| on I/O or
// syntax problems.
bool ParseTomlFile(const std::string& path, std::map<std::string, std::string>* out,
                   std::string* error);

// --key=value flags (a bare --key reads as "1"), then, when |keys| holds "config", the
// keys of the TOML file --config names that the command line has not set. Anything else
// (an argument that is not a flag, a key outside |keys|, a bad --config file) is printed
// to stderr, all of it, and the process exits with status 2.
using Flags = std::map<std::string, std::string>;
Flags ParseFlags(int argc, const char* const* argv, std::set<std::string> keys);

// ParseFlags over FromFlags' keys, config, role and registry (the child-role handoff
// LaunchCluster appends), verbose, and |program_keys|.
std::map<std::string, std::string> ParseClusterFlags(
    int argc, const char* const* argv, const std::vector<std::string>& program_keys = {});

// Typed reads of a parsed command line; |fallback| when |key| is not set.
std::string FlagOr(const Flags& flags, const std::string& key, const std::string& fallback);
int FlagInt(const Flags& flags, const std::string& key, int fallback);
double FlagDouble(const Flags& flags, const std::string& key, double fallback);

// --- job derivation (identical in every process of a deployment) ---

fl::ExecutionOptions BuildExecutionOptions(const ClusterSpec& spec);
DetaOptions BuildDetaOptions(const ClusterSpec& spec);
fl::ModelFactory ClusterModelFactory(const ClusterSpec& spec);
data::Dataset ClusterEvalData(const ClusterSpec& spec);
// Trainers for the parties named in |local_parties|: every process derives the same
// full IID split from the spec and keeps only its shards.
std::vector<std::unique_ptr<fl::Party>> BuildLocalParties(
    const ClusterSpec& spec, const std::vector<std::string>& local_parties);

// --- process orchestration ---

struct RoleOutcome {
  std::string role;
  pid_t pid = -1;
  // waitpid status decoded: the child's exit code, or 128 + signal when killed.
  int exit_code = -1;
};

struct ClusterResult {
  fl::JobResult observer;
  std::vector<RoleOutcome> roles;

  bool AllExitedCleanly() const;
};

// Parent path: binds the TCP registry, spawns |self_exe| once per child role (with
// --role/--registry appended to the spec's flags), runs the observer in-process, then
// reaps every child (bounded wait; stragglers are killed and reported as failures).
ClusterResult LaunchCluster(const ClusterSpec& spec, const std::string& self_exe);

// Child path: hosts exactly |role| over a TCP transport client connected to
// |registry_addr|. Returns the process exit code (0 = the role completed its run).
int RunClusterChild(const ClusterSpec& spec, const std::string& role,
                    const std::string& registry_addr);

}  // namespace deta::core

#endif  // DETA_CORE_CLUSTER_H_
