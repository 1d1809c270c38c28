// Crash/resume determinism: any single role (party, initiator aggregator, follower
// aggregator, key broker) crash-killed at any checkpointed round and revived from its
// snapshot must leave the run bitwise-identical to a fault-free run — same final
// parameters, same training-progress telemetry signature — at any thread count. Plus
// whole-job resume (checkpoint.resume) for both DeTA and the one-aggregator FFL baseline.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>

#include "common/telemetry.h"
#include "core/deta_job.h"
#include "persist/state_store.h"

namespace deta::core {
namespace {

constexpr int kParties = 3;
constexpr int kAggregators = 2;

fl::ModelFactory TinyMlpFactory() {
  return [] {
    Rng rng(1234);
    return nn::BuildMlp(14 * 14, {8}, 10, rng);
  };
}

data::Dataset SmallMnist(int n, uint64_t seed) {
  data::SyntheticConfig config;
  config.num_examples = n;
  config.classes = 10;
  config.channels = 1;
  config.image_size = 14;
  config.style = data::ImageStyle::kBlobs;
  config.seed = seed;
  config.prototype_seed = 777;
  return data::GenerateSynthetic(config);
}

fl::TrainConfig TrainCfg() {
  fl::TrainConfig tc;
  tc.batch_size = 16;
  tc.local_epochs = 1;
  tc.lr = 0.1f;
  return tc;
}

std::vector<std::unique_ptr<fl::Party>> MakeParties() {
  data::Dataset full = SmallMnist(32 * kParties, 5);
  Rng rng(9);
  auto shards = data::SplitIid(full, kParties, rng);
  std::vector<std::unique_ptr<fl::Party>> parties;
  for (int i = 0; i < kParties; ++i) {
    parties.push_back(std::make_unique<fl::Party>(
        "party" + std::to_string(i), shards[static_cast<size_t>(i)], TinyMlpFactory(),
        TrainCfg(), 100 + i));
  }
  return parties;
}

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  // The pid keeps concurrently running ctest processes (each test is its own process,
  // each with its own counter starting at 0) out of each other's directories; the
  // remove_all guards against a recycled pid resurfacing a previous run's snapshots,
  // which a revived role must never load.
  std::string dir = ::testing::TempDir() + "resume_" + tag + "_" +
                    std::to_string(::getpid()) + "_" + std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

fl::ExecutionOptions BaseOptions(int rounds, int threads, const std::string& dir) {
  fl::ExecutionOptions options;
  options.rounds = rounds;
  options.train = TrainCfg();
  options.threads = threads;
  // Generous deadlines: a crashed role is revived within ~50ms, but the suite must
  // stay robust on loaded or sanitizer-slowed CI machines, where the EC handshakes of
  // setup alone can exceed the default 30s readiness barrier on a single core.
  options.round_timeout_ms = 30000;
  options.setup_timeout_ms = 180000;
  options.retry.max_attempts = 10;
  options.retry.max_timeout_ms = 8000;
  options.checkpoint.dir = dir;
  return options;
}

DetaOptions Deployment() {
  DetaOptions d;
  d.num_aggregators = kAggregators;
  return d;
}

struct CleanRun {
  std::vector<float> final_params;
  std::string signature;
};

// Fault-free reference runs, cached per (threads, rounds): every crash scenario
// compares against the identical workload executed without interruption.
const CleanRun& CleanBaseline(int threads, int rounds) {
  static std::map<std::pair<int, int>, CleanRun> cache;
  auto key = std::make_pair(threads, rounds);
  auto it = cache.find(key);
  if (it == cache.end()) {
    fl::ExecutionOptions options = BaseOptions(rounds, threads, "");
    DetaJob job(options, Deployment(), MakeParties(), TinyMlpFactory(),
                SmallMnist(40, 6));
    fl::JobResult r = job.Run();
    EXPECT_TRUE(r.ok()) << r.error;
    EXPECT_FALSE(r.final_params.empty());
    it = cache.emplace(key,
                       CleanRun{r.final_params,
                                r.telemetry.DeterministicSignature("core.deta_job.")})
             .first;
  }
  return it->second;
}

fl::JobResult RunWithCrash(const std::string& role, int at_round, int threads,
                           int rounds) {
  fl::ExecutionOptions options =
      BaseOptions(rounds, threads, UniqueDir("crash_" + role));
  options.fault_plan.crashes.push_back({role, at_round});
  DetaJob job(options, Deployment(), MakeParties(), TinyMlpFactory(), SmallMnist(40, 6));
  return job.Run();
}

void ExpectMatchesClean(const fl::JobResult& r, int threads, int rounds) {
  ASSERT_TRUE(r.ok()) << r.error;
  const CleanRun& clean = CleanBaseline(threads, rounds);
  EXPECT_EQ(r.final_params, clean.final_params);
  EXPECT_EQ(r.telemetry.DeterministicSignature("core.deta_job."), clean.signature);
  EXPECT_EQ(r.telemetry.counters.at("persist.crash.injected"), 1u);
  EXPECT_GE(r.telemetry.counters.at("persist.role_revived"), 1u);
}

TEST(CrashResumeTest, PartyCrashAtEveryRoundIsLossless) {
  for (int round = 1; round <= 3; ++round) {
    SCOPED_TRACE("crash round " + std::to_string(round));
    ExpectMatchesClean(RunWithCrash("party1", round, 2, 3), 2, 3);
  }
}

TEST(CrashResumeTest, PartyCrashIsThreadCountInvariant) {
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectMatchesClean(RunWithCrash("party1", 2, threads, 3), threads, 3);
  }
  // The revived runs agree across thread counts too (transitively via the clean
  // baselines, which must themselves be identical).
  EXPECT_EQ(CleanBaseline(1, 3).final_params, CleanBaseline(2, 3).final_params);
  EXPECT_EQ(CleanBaseline(2, 3).final_params, CleanBaseline(4, 3).final_params);
}

TEST(CrashResumeTest, InitiatorCrashAtEveryRoundIsLossless) {
  for (int round = 1; round <= 3; ++round) {
    SCOPED_TRACE("crash round " + std::to_string(round));
    ExpectMatchesClean(RunWithCrash("aggregator0", round, 2, 3), 2, 3);
  }
}

TEST(CrashResumeTest, FollowerCrashMidRunIsLossless) {
  ExpectMatchesClean(RunWithCrash("aggregator1", 2, 2, 3), 2, 3);
}

TEST(CrashResumeTest, KeyBrokerCrashDuringEverySetupServeIsLossless) {
  // For the broker, |at_round| counts distinct parties served: crash before the 1st,
  // 2nd, and 3rd fetch — the stranded party retries the whole handshake against the
  // revived broker.
  for (int serve = 1; serve <= kParties; ++serve) {
    SCOPED_TRACE("crash before serve " + std::to_string(serve));
    ExpectMatchesClean(RunWithCrash(KeyBroker::kEndpointName, serve, 2, 3), 2, 3);
  }
}

// Paillier fusion in the DeTA shape and in the FFL baseline's. A party snapshot holds
// the fusion key once, inside the sealed broker material, so the revived party decrypts
// with the key it restored from there: it does not refetch.
TEST(CrashResumeTest, PaillierPartyCrashIsLossless) {
  for (bool ffl : {false, true}) {
    SCOPED_TRACE(ffl ? "FFL baseline" : "DeTA");
    auto run = [ffl](const std::string& dir, bool crash) {
      fl::ExecutionOptions options = BaseOptions(3, 2, dir);
      options.use_paillier = true;
      if (crash) {
        options.fault_plan.crashes.push_back({"party1", 2});
      }
      if (ffl) {
        return RunCentralizedBaseline(options, MakeParties(), TinyMlpFactory(),
                                      SmallMnist(40, 6));
      }
      return DetaJob(options, Deployment(), MakeParties(), TinyMlpFactory(),
                     SmallMnist(40, 6))
          .Run();
    };
    fl::JobResult clean = run("", false);
    ASSERT_TRUE(clean.ok()) << clean.error;
    fl::JobResult revived = run(UniqueDir("crash_paillier"), true);
    ASSERT_TRUE(revived.ok()) << revived.error;
    EXPECT_EQ(revived.final_params, clean.final_params);
    EXPECT_EQ(revived.telemetry.DeterministicSignature("core.deta_job."),
              clean.telemetry.DeterministicSignature("core.deta_job."));
    EXPECT_EQ(revived.telemetry.counters.at("persist.crash.injected"), 1u);
    EXPECT_GE(revived.telemetry.counters.at("persist.role_revived"), 1u);
  }
}

TEST(CrashResumeTest, WholeJobResumeMatchesUninterruptedRun) {
  std::string dir = UniqueDir("modeb_deta");
  fl::JobResult first =
      DetaJob(BaseOptions(2, 2, dir), Deployment(), MakeParties(), TinyMlpFactory(),
              SmallMnist(40, 6))
          .Run();
  ASSERT_TRUE(first.ok()) << first.error;

  fl::ExecutionOptions resumed_options = BaseOptions(4, 2, dir);
  resumed_options.checkpoint.resume = true;
  fl::JobResult resumed = DetaJob(resumed_options, Deployment(), MakeParties(),
                                  TinyMlpFactory(), SmallMnist(40, 6))
                              .Run();
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.resumed_from_round, 2);
  ASSERT_EQ(resumed.rounds.size(), 2u);  // only rounds 3 and 4 were executed
  EXPECT_EQ(resumed.rounds.front().round, 3);
  EXPECT_EQ(resumed.final_params, CleanBaseline(2, 4).final_params);
}

// Whole-job resume in the baseline shape: one aggregator and no partition/shuffle.
// Parties rebuild their transform from the broker material in their sealed snapshots,
// as DeTA parties do.
TEST(CrashResumeTest, FflWholeJobResumeMatchesUninterruptedRun) {
  std::string dir = UniqueDir("modeb_ffl");
  fl::JobResult first = RunCentralizedBaseline(BaseOptions(2, 2, dir), MakeParties(),
                                               TinyMlpFactory(), SmallMnist(40, 6));
  ASSERT_TRUE(first.ok()) << first.error;

  fl::ExecutionOptions resumed_options = BaseOptions(4, 2, dir);
  resumed_options.checkpoint.resume = true;
  fl::JobResult resumed = RunCentralizedBaseline(resumed_options, MakeParties(),
                                                 TinyMlpFactory(), SmallMnist(40, 6));
  ASSERT_TRUE(resumed.ok()) << resumed.error;
  EXPECT_EQ(resumed.resumed_from_round, 2);
  ASSERT_EQ(resumed.rounds.size(), 2u);

  fl::JobResult clean = RunCentralizedBaseline(BaseOptions(4, 2, ""), MakeParties(),
                                               TinyMlpFactory(), SmallMnist(40, 6));
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(resumed.final_params, clean.final_params);
}

TEST(CrashResumeTest, ResumeWithoutSnapshotIsATypedFailure) {
  fl::ExecutionOptions options = BaseOptions(2, 2, UniqueDir("nosnap"));
  options.checkpoint.resume = true;
  fl::JobResult r = DetaJob(options, Deployment(), MakeParties(), TinyMlpFactory(),
                            SmallMnist(40, 6))
                        .Run();
  EXPECT_EQ(r.status, fl::JobStatus::kSetupFailed);
  EXPECT_NE(r.error.find("no verifiable job snapshot"), std::string::npos) << r.error;
}

// Whole-job resume pins every role to the job snapshot's round. A party whose snapshot of
// that round is gone falls back to an older generation, which the loader refuses: the
// resume ends as a typed setup failure naming the party, not a hang or a rewound party.
TEST(CrashResumeTest, MissingSnapshotAtResumeCutIsATypedFailure) {
  std::string dir = UniqueDir("cut");
  fl::JobResult first =
      DetaJob(BaseOptions(2, 2, dir), Deployment(), MakeParties(), TinyMlpFactory(),
              SmallMnist(40, 6))
          .Run();
  ASSERT_TRUE(first.ok()) << first.error;

  persist::StateStore store({dir});
  std::optional<persist::Snapshot> newest = store.Load("party1");
  ASSERT_TRUE(newest.has_value());
  ASSERT_EQ(newest->round, 2);
  ASSERT_TRUE(std::filesystem::remove(store.PathFor("party1", newest->generation)));
  ASSERT_EQ(store.Load("party1").value().round, 1);

  fl::ExecutionOptions options = BaseOptions(4, 2, dir);
  options.checkpoint.resume = true;
  fl::JobResult r = DetaJob(options, Deployment(), MakeParties(), TinyMlpFactory(),
                            SmallMnist(40, 6))
                        .Run();
  EXPECT_EQ(r.status, fl::JobStatus::kSetupFailed);
  EXPECT_NE(r.error.find("party party1 failed setup"), std::string::npos) << r.error;
}

TEST(CrashResumeTest, ResumeUnderDifferentConfigIsATypedFailure) {
  std::string dir = UniqueDir("misconfig");
  fl::JobResult first =
      DetaJob(BaseOptions(1, 2, dir), Deployment(), MakeParties(), TinyMlpFactory(),
              SmallMnist(40, 6))
          .Run();
  ASSERT_TRUE(first.ok()) << first.error;

  fl::ExecutionOptions options = BaseOptions(2, 2, dir);
  options.checkpoint.resume = true;
  options.seed = 8;  // different job identity than the snapshot's writer
  fl::JobResult r = DetaJob(options, Deployment(), MakeParties(), TinyMlpFactory(),
                            SmallMnist(40, 6))
                        .Run();
  EXPECT_EQ(r.status, fl::JobStatus::kSetupFailed);
  EXPECT_NE(r.error.find("different configuration"), std::string::npos) << r.error;
}

}  // namespace
}  // namespace deta::core
