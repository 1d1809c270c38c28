// deta_cluster — multi-process DeTA deployment over real TCP sockets.
//
// The parent process hosts the transport name registry and the evaluation observer,
// then re-execs itself once per role: N aggregators, M parties, and the key broker each
// run in their own OS process and talk only through the TCP transport. Every process
// derives identical job state (auth tokens, transform material, Paillier keys, data
// shards) from the shared seed, so the distributed run trains the exact model the
// single-process deta_run would.
//
//   $ ./deta_cluster --aggregators=3 --parties=8 --rounds=3 --telemetry-dir=out/
//   $ ./deta_cluster --config=cluster.toml          # flat `key = value` TOML
//
// Flags (all optional; --config values are overridden by explicit flags; any other key
// exits with status 2 before a role is spawned):
//   --parties=N --aggregators=N --rounds=N --seed=N
//   --algorithm=NAME --paillier=0|1
//   --examples-per-party=N --eval-examples=N --image-size=N
//   --batch=N --local-epochs=N --lr=F --threads=N
//   --round-timeout-ms=N --setup-timeout-ms=N
//   --retry-attempts=N --retry-initial-timeout-ms=N --retry-max-timeout-ms=N
//   --listen-host=HOST --registry-port=N        (0 = pick a free port)
//   --telemetry-dir=DIR                         per-role telemetry JSON under DIR
//   --drop=F --fault-seed=N                     seeded message-loss injection
//   --config=FILE                               load flags from a flat TOML file
//   --verbose                                   log at INFO
//
// Internal (added by the parent when spawning children — do not set by hand):
//   --role=NAME --registry=HOST:PORT
#include <cstdio>
#include <map>
#include <string>

#include "common/logging.h"
#include "core/cluster.h"

using namespace deta;

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags = core::ParseClusterFlags(argc, argv);
  SetLogLevel(flags.count("verbose") != 0 ? LogLevel::kInfo : LogLevel::kWarning);
  core::ClusterSpec spec = core::ClusterSpec::FromFlags(flags);
  core::RejectJobShape(argv[0], spec);

  auto role_it = flags.find("role");
  if (role_it != flags.end()) {
    auto registry_it = flags.find("registry");
    if (registry_it == flags.end()) {
      std::fprintf(stderr, "--role requires --registry=HOST:PORT\n");
      return 2;
    }
    return core::RunClusterChild(spec, role_it->second, registry_it->second);
  }

  std::printf("deta_cluster: %d aggregators, %d parties, key broker, %d rounds over TCP\n",
              spec.aggregators, spec.parties, spec.rounds);
  core::ClusterResult result = core::LaunchCluster(spec, argv[0]);

  for (const core::RoleOutcome& role : result.roles) {
    std::printf("  role %-14s pid %-7d exit %d\n", role.role.c_str(),
                static_cast<int>(role.pid), role.exit_code);
  }
  if (!result.observer.ok()) {
    std::fprintf(stderr, "observer run failed (%s): %s\n",
                 fl::JobStatusName(result.observer.status),
                 result.observer.error.c_str());
    return 1;
  }
  if (!result.AllExitedCleanly()) {
    std::fprintf(stderr, "one or more roles exited uncleanly\n");
    return 1;
  }
  std::printf("\n%5s %10s %10s %12s %12s\n", "round", "loss", "accuracy", "latency(s)",
              "wall(s)");
  for (const auto& m : result.observer.rounds) {
    std::printf("%5d %10.4f %10.4f %12.3f %12.3f\n", m.round, m.loss, m.accuracy,
                m.cumulative_latency_s, m.wall_seconds);
  }
  if (!spec.telemetry_dir.empty()) {
    std::printf("per-role telemetry under %s/\n", spec.telemetry_dir.c_str());
  }
  return 0;
}
