// Transport conformance: every protocol-level behavior must be identical whether the
// roles talk over the in-process MessageBus or over real TCP sockets. The suite runs
// the auth handshake, the key-broker fetch, a full training job (clean, 5% message
// loss, and crash/resume) against both backends and asserts the final model parameters
// are bitwise-identical — including a distributed scenario where every role lives on
// its own TcpTransport node, exactly like a deta_cluster process would.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "core/auth_protocol.h"
#include "core/cluster.h"
#include "core/deta_job.h"
#include "core/key_broker.h"
#include "net/message_bus.h"
#include "net/tcp_transport.h"

namespace deta::core {
namespace {

std::unique_ptr<net::Transport> MakeBackend(const std::string& which) {
  if (which == "tcp") {
    net::TcpTransportOptions options;
    options.node_name = "conformance";
    return std::make_unique<net::TcpTransport>(options);
  }
  return std::make_unique<net::MessageBus>();
}

ClusterSpec SmallSpec() {
  ClusterSpec spec;
  spec.parties = 3;
  spec.aggregators = 2;
  spec.rounds = 2;
  spec.seed = 1234;
  // Generous deadlines + retries: TCP adds scheduling latency the in-proc bus does not
  // have, and the suite must stay robust on sanitizer-slowed CI machines.
  spec.round_timeout_ms = 30000;
  spec.setup_timeout_ms = 180000;
  return spec;
}

// Runs the spec's job with every role local. |transport| null = the job's own
// MessageBus (the pre-transport-subsystem code path, which existing DetaJob tests pin
// against the centralized baseline — matching it means matching the pre-PR result).
fl::JobResult RunAllLocal(const ClusterSpec& spec, net::Transport* transport,
                          const std::string& checkpoint_dir = "") {
  fl::ExecutionOptions options = BuildExecutionOptions(spec);
  options.retry.max_attempts = 10;
  options.retry.max_timeout_ms = 8000;
  options.checkpoint.dir = checkpoint_dir;
  DetaDeployment deployment;
  deployment.transport = transport;
  DetaJob job(options, BuildDetaOptions(spec), BuildLocalParties(spec, spec.PartyNames()),
              ClusterModelFactory(spec), ClusterEvalData(spec), deployment);
  return job.Run();
}

// The clean in-proc reference every scenario compares against, cached per seed.
const std::vector<float>& CleanReference() {
  static const std::vector<float>* params = [] {
    fl::JobResult r = RunAllLocal(SmallSpec(), nullptr);
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.final_params.empty());
    return new std::vector<float>(r.final_params);
  }();
  return *params;
}

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "conformance_" + tag + "_" +
                    std::to_string(::getpid()) + "_" + std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

class TransportConformanceTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values("inproc", "tcp"),
                         [](const auto& info) { return std::string(info.param); });

TEST_P(TransportConformanceTest, AuthHandshakeVerifiesAndRejects) {
  std::unique_ptr<net::Transport> transport = MakeBackend(GetParam());
  auto party = transport->CreateEndpoint("party0");
  auto aggregator = transport->CreateEndpoint("agg0");
  crypto::SecureRng rng(StringToBytes("conformance-auth"));
  crypto::EcKeyPair token = crypto::GenerateEcKey(rng);
  crypto::EcKeyPair impostor = crypto::GenerateEcKey(rng);

  std::thread responder([&] {
    for (int i = 0; i < 2; ++i) {
      auto m = aggregator->ReceiveType(kAuthChallenge);
      ASSERT_TRUE(m.has_value());
      // Answer the first challenge with the provisioned token, the second with an
      // impostor key: the verifier must accept exactly one of them on any backend.
      AnswerChallenge(*aggregator, *m, i == 0 ? token.private_key : impostor.private_key);
    }
  });
  EXPECT_TRUE(VerifyAggregator(*party, "agg0", token.public_key, rng));
  EXPECT_FALSE(VerifyAggregator(*party, "agg0", token.public_key, rng));
  responder.join();
}

TEST_P(TransportConformanceTest, KeyFetchServesIdenticalMaterial) {
  std::unique_ptr<net::Transport> transport = MakeBackend(GetParam());
  crypto::SecureRng setup_rng(StringToBytes("conformance-kb"));
  crypto::EcKeyPair identity = crypto::GenerateEcKey(setup_rng);
  TransformMaterial material;
  material.permutation_key =
      Secret<Bytes>(GeneratePermutationKey(128, StringToBytes("conformance")));
  material.mapper_seed = Secret<Bytes>(StringToBytes("conformance-mapper-seed"));
  material.total_params = 1000;
  material.num_aggregators = 2;
  KeyBroker broker(material, identity, /*expected_parties=*/2, *transport,
                   crypto::SecureRng(setup_rng.NextBytes(32)));
  broker.Start();

  auto fetch = [&](const std::string& name) -> std::optional<TransformMaterial> {
    auto endpoint = transport->CreateEndpoint(name);
    crypto::SecureRng rng(StringToBytes("party-" + name));
    return FetchTransformMaterial(*endpoint, identity.public_key, rng);
  };
  std::optional<TransformMaterial> m1, m2;
  std::thread t1([&] { m1 = fetch("party0"); });
  std::thread t2([&] { m2 = fetch("party1"); });
  t1.join();
  t2.join();
  broker.Join();

  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m1->permutation_key, material.permutation_key);
  EXPECT_EQ(m2->permutation_key, material.permutation_key);
  EXPECT_EQ(m1->mapper_seed, material.mapper_seed);
}

TEST_P(TransportConformanceTest, FullRoundMatchesInProcReferenceBitExactly) {
  std::unique_ptr<net::Transport> transport = MakeBackend(GetParam());
  fl::JobResult r = RunAllLocal(SmallSpec(), transport.get());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.final_params, CleanReference());
  ASSERT_EQ(r.rounds.size(), 2u);
  // The scale-harness inputs must be populated on any backend: per-round wall time and
  // one upload RTT per party per round.
  for (const auto& m : r.rounds) {
    EXPECT_GT(m.wall_seconds, 0.0);
    EXPECT_EQ(m.party_rtts_s.size(), 3u);
  }
}

TEST_P(TransportConformanceTest, FivePercentDropStillConvergesBitExactly) {
  ClusterSpec spec = SmallSpec();
  spec.drop_probability = 0.05;
  std::unique_ptr<net::Transport> transport = MakeBackend(GetParam());
  fl::JobResult r = RunAllLocal(spec, transport.get());
  ASSERT_TRUE(r.ok()) << r.error;
  // Retransmission recovers every loss: the faulty run trains the exact model of the
  // fault-free in-proc run, on either backend.
  EXPECT_EQ(r.final_params, CleanReference());
}

TEST_P(TransportConformanceTest, PartyCrashResumeIsLossless) {
  ClusterSpec spec = SmallSpec();
  fl::ExecutionOptions options = BuildExecutionOptions(spec);
  options.retry.max_attempts = 10;
  options.retry.max_timeout_ms = 8000;
  options.checkpoint.dir = UniqueDir(GetParam());
  options.fault_plan.crashes.push_back({"party1", 2});
  std::unique_ptr<net::Transport> transport = MakeBackend(GetParam());
  DetaDeployment deployment;
  deployment.transport = transport.get();
  DetaJob job(options, BuildDetaOptions(spec), BuildLocalParties(spec, spec.PartyNames()),
              ClusterModelFactory(spec), ClusterEvalData(spec), deployment);
  fl::JobResult r = job.Run();
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.telemetry.counters.at("persist.crash.injected"), 1u);
  EXPECT_GE(r.telemetry.counters.at("persist.role_revived"), 1u);
  EXPECT_EQ(r.final_params, CleanReference());
}

// Distributed scenario: every role on its own TcpTransport node (one registry node +
// one client node per role), each running a role-filtered DetaJob exactly like one
// deta_cluster child process — but on threads, so the test stays single-process.
TEST(TransportDistributedTest, MultiNodeJobMatchesInProcReferenceBitExactly) {
  ClusterSpec spec = SmallSpec();

  net::TcpTransportOptions host_options;
  host_options.node_name = "observer-node";
  net::TcpTransport host(host_options);
  std::string registry = host.registry_address();

  std::vector<std::string> worker_roles = spec.AggregatorNames();
  for (const std::string& p : spec.PartyNames()) {
    worker_roles.push_back(p);
  }
  worker_roles.push_back(KeyBroker::kEndpointName);

  auto run_role = [&spec, &registry](const std::string& role, fl::JobResult* out) {
    net::TcpTransportOptions options;
    options.registry_addr = registry;
    options.node_name = role + "-node";
    net::TcpTransport transport(options);
    fl::ExecutionOptions exec = BuildExecutionOptions(spec);
    exec.retry.max_attempts = 10;
    exec.retry.max_timeout_ms = 8000;
    DetaDeployment deployment;
    deployment.transport = &transport;
    deployment.local_roles = {role};
    deployment.party_names = spec.PartyNames();
    std::vector<std::string> local_parties;
    for (const std::string& p : spec.PartyNames()) {
      if (p == role) {
        local_parties.push_back(p);
      }
    }
    DetaJob job(exec, BuildDetaOptions(spec), BuildLocalParties(spec, local_parties),
                ClusterModelFactory(spec), ClusterEvalData(spec), deployment);
    *out = job.Run();
  };

  std::vector<fl::JobResult> worker_results(worker_roles.size());
  std::vector<std::thread> workers;
  for (size_t i = 0; i < worker_roles.size(); ++i) {
    workers.emplace_back(run_role, worker_roles[i], &worker_results[i]);
  }

  fl::ExecutionOptions exec = BuildExecutionOptions(spec);
  exec.retry.max_attempts = 10;
  exec.retry.max_timeout_ms = 8000;
  DetaDeployment deployment;
  deployment.transport = &host;
  deployment.local_roles = {kObserver};
  deployment.party_names = spec.PartyNames();
  DetaJob observer(exec, BuildDetaOptions(spec), {}, ClusterModelFactory(spec),
                   ClusterEvalData(spec), deployment);
  fl::JobResult r = observer.Run();
  for (std::thread& w : workers) {
    w.join();
  }

  ASSERT_TRUE(r.ok()) << r.error;
  for (size_t i = 0; i < worker_roles.size(); ++i) {
    SCOPED_TRACE(worker_roles[i]);
    EXPECT_TRUE(worker_results[i].ok()) << worker_results[i].error;
  }
  EXPECT_EQ(r.final_params, CleanReference());
  // Every hosted party's copy of the merged model agrees with the observer's.
  for (size_t i = 0; i < worker_roles.size(); ++i) {
    if (worker_roles[i].rfind("party", 0) == 0) {
      SCOPED_TRACE(worker_roles[i]);
      EXPECT_EQ(worker_results[i].final_params, r.final_params);
    }
  }
}

}  // namespace
}  // namespace deta::core
