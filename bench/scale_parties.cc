// Scale harness: how does one DeTA round behave at 1k-10k parties?
//
// Two modes, one spec (src/core/cluster.h — the same builders deta_cluster and the
// transport conformance tests use, so a scale run trains the exact bits of the
// equivalent small run):
//
//   * --mode=inproc (default): every role in this process over the in-proc bus. The
//     default 1000 parties exercise the O(parties) paths — per-party handshakes, the
//     readiness barrier, fan-in aggregation, the bounded dedup windows — without
//     socket overhead. --parties=10000 for the full-scale run.
//   * --mode=tcp: a real multi-process cluster over TCP localhost (the parent re-execs
//     itself per role, exactly like examples/deta_cluster). The default 60 parties +
//     3 aggregators + key broker = 64 OS processes.
//
// Per round the harness reports wall time, upload throughput (parties / round wall),
// and the p50/p99 tail of the per-party upload round-trip latencies that parties
// measure locally and report with their timing messages.
//
//   $ ./scale_parties                          # 1000 in-proc parties, 2 rounds
//   $ ./scale_parties --parties=10000
//   $ ./scale_parties --mode=tcp               # 64-process TCP cluster
//   $ ./scale_parties --telemetry-out=out.json # process telemetry for bench_gate.py
//
// Besides --mode and --telemetry-out it takes deta_cluster's flags (core::ParseClusterFlags);
// any other key exits with status 2.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/telemetry.h"
#include "core/cluster.h"

using namespace deta;

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void Report(const fl::JobResult& result, int parties) {
  std::printf("\n%5s %10s %14s %12s %12s %12s\n", "round", "wall(s)", "uploads/s",
              "rtt p50(ms)", "rtt p99(ms)", "accuracy");
  for (const auto& m : result.rounds) {
    double throughput =
        m.wall_seconds > 0.0 ? static_cast<double>(parties) / m.wall_seconds : 0.0;
    std::printf("%5d %10.3f %14.1f %12.3f %12.3f %12.4f\n", m.round, m.wall_seconds,
                throughput, Percentile(m.party_rtts_s, 0.50) * 1e3,
                Percentile(m.party_rtts_s, 0.99) * 1e3, m.accuracy);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags =
      core::ParseClusterFlags(argc, argv, {"mode", "telemetry-out"});
  SetLogLevel(flags.count("verbose") != 0 ? LogLevel::kInfo : LogLevel::kWarning);
  std::string mode = flags.count("mode") != 0 ? flags["mode"] : "inproc";

  // Scale-tuned defaults (explicit flags win): a deliberately tiny per-party workload,
  // because the protocol fabric is the system under test, not SGD.
  flags.emplace("parties", mode == "tcp" ? "60" : "1000");
  flags.emplace("aggregators", "3");
  flags.emplace("rounds", "2");
  flags.emplace("examples-per-party", "8");
  flags.emplace("eval-examples", "32");
  flags.emplace("batch", "8");
  // Everything else (key broker on, timeouts, retry policy) is the ClusterSpec default.
  core::ClusterSpec spec = core::ClusterSpec::FromFlags(flags);
  core::RejectJobShape(argv[0], spec);

  // Child-role dispatch for --mode=tcp (the parent re-execs this very binary).
  auto role_it = flags.find("role");
  if (role_it != flags.end()) {
    return core::RunClusterChild(spec, role_it->second, flags["registry"]);
  }

  fl::JobResult result;
  if (mode == "tcp") {
    std::printf("scale_parties: %d-process TCP cluster (%d parties, %d aggregators)\n",
                static_cast<int>(spec.ChildRoles().size()), spec.parties,
                spec.aggregators);
    core::ClusterResult cluster = core::LaunchCluster(spec, argv[0]);
    if (!cluster.AllExitedCleanly()) {
      std::fprintf(stderr, "one or more roles exited uncleanly\n");
      return 1;
    }
    result = std::move(cluster.observer);
  } else if (mode == "inproc") {
    std::printf("scale_parties: %d in-proc parties, %d aggregators, %d rounds\n",
                spec.parties, spec.aggregators, spec.rounds);
    core::DetaJob job(core::BuildExecutionOptions(spec), core::BuildDetaOptions(spec),
                      core::BuildLocalParties(spec, spec.PartyNames()),
                      core::ClusterModelFactory(spec), core::ClusterEvalData(spec));
    result = job.Run();
  } else {
    std::fprintf(stderr, "unknown --mode=%s (inproc|tcp)\n", mode.c_str());
    return 2;
  }

  if (!result.ok()) {
    std::fprintf(stderr, "run failed (%s): %s\n", fl::JobStatusName(result.status),
                 result.error.c_str());
    return 1;
  }
  Report(result, spec.parties);
  std::printf("setup: %.3fs wall (attestation, key fetch, handshakes, ready barrier;"
              " one-time)\n",
              result.setup_seconds);

  auto out_it = flags.find("telemetry-out");
  if (out_it != flags.end() &&
      !telemetry::WriteJsonFile(telemetry::Snapshot(), out_it->second)) {
    std::fprintf(stderr, "failed to write telemetry to %s\n", out_it->second.c_str());
    return 1;
  }
  return 0;
}
