// The one command-line parser (ParseFlags; ParseClusterFlags for deta_cluster and
// scale_parties, a key set of its own for deta_run): a spec survives ToArgs ->
// ParseClusterFlags -> FromFlags, a --config file fills the keys the command line leaves
// unset, and a key the program does not read, or a bad --config file, ends the process
// with status 2 instead of running on defaults.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
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

// Writes |contents| to a fresh file under the test temp dir and returns its path.
std::string WriteConfig(const std::string& name, const std::string& contents) {
  std::string path = ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  std::ofstream(path) << contents;
  return path;
}

TEST(ClusterFlagsTest, ConfigFileFillsWhatTheCommandLineLeaves) {
  const std::string path =
      WriteConfig("job.toml",
                  "# a deployment\n"
                  "parties = 5   # the command line overrides this\n"
                  "aggregators = 2\n"
                  "telemetry-dir = \"out/#1\"  # a '#' inside quotes is data\n"
                  "paillier = true\n"
                  "verbose = false\n"
                  "\n"
                  "lr = 0.25\n");
  auto flags = Parse({"--config=" + path, "--parties=7"});
  std::remove(path.c_str());
  EXPECT_EQ(flags.at("verbose"), "0");
  ClusterSpec spec = ClusterSpec::FromFlags(flags);
  EXPECT_EQ(spec.parties, 7);
  EXPECT_EQ(spec.aggregators, 2);
  EXPECT_EQ(spec.telemetry_dir, "out/#1");
  EXPECT_TRUE(spec.use_paillier);
  EXPECT_EQ(spec.lr, 0.25);
  EXPECT_EQ(spec.rounds, ClusterSpec().rounds);
}

TEST(ClusterFlagsDeathTest, BadConfigFileExitsTwoNamingTheLineOrPath) {
  const std::string path =
      WriteConfig("sectioned.toml", "parties = 5\n[job]\nrounds = 2\n");
  EXPECT_EXIT(Parse({"--config=" + path}), ::testing::ExitedWithCode(2),
              "sectioned\\.toml:2: section headers are not supported");
  std::remove(path.c_str());
  EXPECT_EXIT(Parse({"--config=" + ::testing::TempDir() + "no_such_job.toml"}),
              ::testing::ExitedWithCode(2), "cannot open .*no_such_job\\.toml");
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

TEST(ClusterFlagsDeathTest, ProgramKeySetRejectsEveryOtherKey) {
  auto parse = [](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "deta_run");
    return ParseFlags(static_cast<int>(argv.size()), argv.data(), {"rounds", "parties"});
  };
  EXPECT_EQ(parse({"--rounds=1", "--parties=2"}).at("parties"), "2");
  EXPECT_EXIT(parse({"--rounds=1", "--parties=2", "--round=7", "--bogus=1"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --bogus\n.*unknown flag --round");
  // --config is a key like any other: a program that does not take it rejects it.
  EXPECT_EXIT(parse({"--config=job.toml"}), ::testing::ExitedWithCode(2),
              "unknown flag --config");
}

TEST(ClusterFlagsDeathTest, JobTheJobRefusesExitsTwoWithItsReason) {
  // Each flag parses alone; together they describe a job DetaJob refuses, which the
  // drivers reject the way they reject a bad flag instead of aborting the job later.
  const std::vector<std::pair<std::vector<std::string>, std::string>> refused = {
      {{"--paillier=1", "--algorithm=krum"},
       "Paillier fusion runs iterative_averaging, not krum"},
      {{"--aggregators=0"}, "a job needs at least one aggregator, not 0"},
      {{"--parties=0"}, "a job needs at least one party"},
  };
  for (const auto& [flags, reason] : refused) {
    ClusterSpec spec = ClusterSpec::FromFlags(Parse(flags));
    EXPECT_EQ(JobShapeError(BuildExecutionOptions(spec), BuildDetaOptions(spec),
                            static_cast<size_t>(spec.parties)),
              reason);
    EXPECT_EXIT(RejectJobShape("deta_cluster", spec), ::testing::ExitedWithCode(2),
                "deta_cluster: " + reason);
  }
  ClusterSpec spec = ClusterSpec::FromFlags(Parse({"--paillier=1", "--rounds=1"}));
  EXPECT_EQ(JobShapeError(BuildExecutionOptions(spec), BuildDetaOptions(spec),
                          static_cast<size_t>(spec.parties)),
            "");
  RejectJobShape("deta_cluster", spec);  // returns: accepted
}

}  // namespace
}  // namespace deta::core
