// The one command-line parser of the ClusterSpec programs (deta_cluster, scale_parties):
// a spec survives ToArgs -> ParseClusterFlags -> FromFlags, and a key no one reads ends
// the process with status 2 instead of running on defaults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"

namespace deta::core {
namespace {

std::map<std::string, std::string> Parse(const std::vector<std::string>& args,
                                         const std::vector<std::string>& program_keys = {}) {
  std::vector<const char*> argv = {"deta_cluster"};
  for (const std::string& arg : args) {
    argv.push_back(arg.c_str());
  }
  return ParseClusterFlags(static_cast<int>(argv.size()), argv.data(), program_keys);
}

TEST(ClusterFlagsTest, ToArgsParsesBackToAnEqualSpec) {
  ClusterSpec spec;
  spec.parties = 5;
  spec.aggregators = 2;
  spec.rounds = 7;
  spec.seed = 9876543210123ULL;
  spec.algorithm = "coordinate_median";
  spec.use_paillier = true;
  spec.examples_per_party = 12;
  spec.eval_examples = 40;
  spec.image_size = 10;
  spec.batch_size = 4;
  spec.local_epochs = 3;
  spec.lr = 0.25;
  spec.threads = 2;
  spec.round_timeout_ms = 1234;
  spec.setup_timeout_ms = 5678;
  spec.retry_attempts = 4;
  spec.retry_initial_timeout_ms = 100;
  spec.retry_max_timeout_ms = 900;
  spec.listen_host = "0.0.0.0";
  spec.registry_port = 4242;
  spec.telemetry_dir = "out/telemetry";
  spec.drop_probability = 0.05;
  spec.fault_seed = 77;
  ASSERT_FALSE(spec == ClusterSpec());
  EXPECT_EQ(ClusterSpec::FromFlags(Parse(spec.ToArgs())), spec);
}

TEST(ClusterFlagsTest, AcceptsTheChildHandoffAndProgramKeys) {
  auto flags = Parse({"--role=party0", "--registry=127.0.0.1:1", "--verbose", "--mode=tcp"},
                     {"mode"});
  EXPECT_EQ(flags.at("role"), "party0");
  EXPECT_EQ(flags.at("verbose"), "1");
  EXPECT_EQ(flags.at("mode"), "tcp");
}

TEST(ClusterFlagsDeathTest, MisspeltKeyExitsTwoNamingEveryOne) {
  EXPECT_EXIT(Parse({"--aggregator=5", "--parties=2", "--key-broker=0"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --aggregator\n.*unknown flag --key-broker");
  // A key one program reads is unknown to another.
  EXPECT_EXIT(Parse({"--mode=tcp"}), ::testing::ExitedWithCode(2), "unknown flag --mode");
  EXPECT_EXIT(Parse({"parties=2"}), ::testing::ExitedWithCode(2),
              "unrecognized argument: parties=2");
}

}  // namespace
}  // namespace deta::core
