// Telemetry substrate tests: concurrent correctness of the sharded counters and
// histograms, span nesting, the DETA_LOG lazy-evaluation guard, and — the load-bearing
// contract — snapshot determinism of a full DeTA job across thread counts.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/telemetry.h"
#include "core/deta_job.h"

namespace deta::telemetry {
namespace {

uint64_t CounterOr0(const TelemetrySnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

TEST(TelemetryCounterTest, ConcurrentAddsFoldExactly) {
  const TelemetrySnapshot before = Snapshot();
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      Counter& c = MetricsRegistry::Global().GetCounter("test.concurrent.counter");
      for (int i = 0; i < kIncrements; ++i) {
        c.Increment();
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const TelemetrySnapshot delta = Delta(before, Snapshot());
  EXPECT_EQ(CounterOr0(delta, "test.concurrent.counter"),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(TelemetryHistogramTest, ConcurrentRecordsFoldExactly) {
  const TelemetrySnapshot before = Snapshot();
  constexpr int kThreads = 4;
  constexpr int kRecords = 5000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      Histogram& h =
          MetricsRegistry::Global().GetHistogram("test.concurrent.hist", Unit::kBytes);
      for (int i = 0; i < kRecords; ++i) {
        h.Record(static_cast<double>(1 << (t % 4)));  // values 1, 2, 4, 8
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const TelemetrySnapshot delta = Delta(before, Snapshot());
  auto it = delta.histograms.find("test.concurrent.hist");
  ASSERT_NE(it, delta.histograms.end());
  EXPECT_EQ(it->second.count, static_cast<uint64_t>(kThreads) * kRecords);
  EXPECT_DOUBLE_EQ(it->second.sum, (1.0 + 2.0 + 4.0 + 8.0) * kRecords);
  uint64_t bucket_total = 0;
  for (const auto& [bucket, count] : it->second.buckets) {
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, it->second.count);
}

TEST(TelemetryHistogramTest, BucketBoundariesArePureFunctions) {
  // Bucket b holds [2^(b-31), 2^(b-30)); 1.0 = 2^0 lands in bucket 31.
  EXPECT_EQ(BucketFor(1.0), 31);
  EXPECT_DOUBLE_EQ(BucketLowerBound(31), 1.0);
  EXPECT_EQ(BucketFor(2.0), 32);
  EXPECT_EQ(BucketFor(1.5), 31);
  EXPECT_EQ(BucketFor(0.5), 30);
  // Underflow/overflow clamp to the edge buckets.
  EXPECT_EQ(BucketFor(0.0), 0);
  EXPECT_EQ(BucketFor(-7.0), 0);
  EXPECT_EQ(BucketFor(1e300), kHistogramBuckets - 1);
}

TEST(TelemetrySpanTest, NestingTracksPerThreadStack) {
  EXPECT_EQ(Span::Depth(), 0);
  const TelemetrySnapshot before = Snapshot();
  {
    Span outer("test.span.outer");
    EXPECT_EQ(Span::Depth(), 1);
    EXPECT_EQ(Span::Current(), "test.span.outer");
    {
      Span inner("test.span.inner");
      EXPECT_EQ(Span::Depth(), 2);
      EXPECT_EQ(Span::Current(), "test.span.inner");
      inner.End();
      EXPECT_EQ(Span::Depth(), 1);
      inner.End();  // idempotent
      EXPECT_EQ(Span::Depth(), 1);
    }
    EXPECT_EQ(Span::Current(), "test.span.outer");
    // A sibling thread's spans never see this thread's stack.
    std::thread([] {
      EXPECT_EQ(Span::Depth(), 0);
      Span t("test.span.thread");
      EXPECT_EQ(Span::Depth(), 1);
    }).join();
    EXPECT_EQ(Span::Depth(), 1);
  }
  EXPECT_EQ(Span::Depth(), 0);
  const TelemetrySnapshot delta = Delta(before, Snapshot());
  auto it = delta.histograms.find("span.test.span.outer.wall_s");
  ASSERT_NE(it, delta.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_EQ(delta.histograms.at("span.test.span.inner.wall_s").count, 1u);
}

TEST(TelemetrySpanTest, SimClockDeltaIsRecorded) {
  SimClock clock;
  const TelemetrySnapshot before = Snapshot();
  {
    Span span("test.span.sim", &clock);
    clock.Advance(2.5);
  }
  const TelemetrySnapshot delta = Delta(before, Snapshot());
  auto it = delta.histograms.find("span.test.span.sim.sim_s");
  ASSERT_NE(it, delta.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_DOUBLE_EQ(it->second.sum, 2.5);
}

TEST(TelemetryJsonTest, ExportContainsRegisteredMetrics) {
  MetricsRegistry::Global().GetCounter("test.json.counter").Add(3);
  MetricsRegistry::Global().GetGauge("test.json.gauge").Set(1.5);
  MetricsRegistry::Global().GetHistogram("test.json.hist", Unit::kSeconds).Record(0.25);
  std::string json = ToJson(Snapshot());
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.json.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\":\"seconds\""), std::string::npos);
}

// Every export names the build it came from: a non-empty build type and flags.
TEST(TelemetryJsonTest, ExportStampsTheBuild) {
  std::string json = ToJson(Snapshot());
  for (const std::string key : {"\"build\":{\"type\":\"", ",\"cxx_flags\":\""}) {
    size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_NE(json[at + key.size()], '"') << key << " is empty";
  }
}

TEST(TelemetryFlagTest, ConsumeTelemetryFlagStripsArgv) {
  char prog[] = "prog";
  char flag[] = "--telemetry-out=/tmp/x.json";
  char other[] = "--benchmark_filter=foo";
  char* argv[] = {prog, flag, other, nullptr};
  int argc = 3;
  EXPECT_EQ(ConsumeTelemetryFlag(&argc, argv), "/tmp/x.json");
  EXPECT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_filter=foo");

  char* argv2[] = {prog, other, nullptr};
  int argc2 = 2;
  EXPECT_EQ(ConsumeTelemetryFlag(&argc2, argv2), "");
  EXPECT_EQ(argc2, 2);
}

TEST(TelemetryLogTest, DisabledLevelSkipsStreamEvaluation) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto observe = [&evaluations] {
    ++evaluations;
    return "x";
  };
  LOG_DEBUG << observe();
  LOG_WARNING << observe();
  EXPECT_EQ(evaluations, 0) << "stream body ran below the log threshold";
  LOG_ERROR << observe();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(saved);
}

TEST(TelemetryLogTest, WarningsAndErrorsFeedCounters) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  const TelemetrySnapshot before = Snapshot();
  LOG_WARNING << "telemetry test warning (expected)";
  LOG_ERROR << "telemetry test error (expected)";
  LOG_INFO << "suppressed, must not count";
  const TelemetrySnapshot delta = Delta(before, Snapshot());
  EXPECT_EQ(CounterOr0(delta, "common.log.warnings"), 1u);
  EXPECT_EQ(CounterOr0(delta, "common.log.errors"), 1u);
  SetLogLevel(saved);
}

// --- full-job determinism ---------------------------------------------------

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

std::vector<std::unique_ptr<fl::Party>> MakeParties(int count, const fl::TrainConfig& tc) {
  data::Dataset full = SmallMnist(32 * count, 5);
  Rng rng(9);
  auto shards = data::SplitIid(full, count, rng);
  std::vector<std::unique_ptr<fl::Party>> parties;
  for (int i = 0; i < count; ++i) {
    parties.push_back(std::make_unique<fl::Party>("party" + std::to_string(i),
                                                  shards[static_cast<size_t>(i)],
                                                  TinyMlpFactory(), tc, 100 + i));
  }
  return parties;
}

fl::ExecutionOptions JobOptions(int threads) {
  fl::ExecutionOptions options;
  options.rounds = 2;
  options.train.batch_size = 16;
  options.train.local_epochs = 1;
  options.train.lr = 0.1f;
  options.threads = threads;
  // Generous timeouts: on a slow (sanitized, 1-core) CI machine a retransmission would
  // perturb the attempt counters the determinism check compares, and TSan's ~10x
  // slowdown can push the EC handshakes past the default 30 s readiness barrier.
  options.retry.initial_timeout_ms = 8000;
  options.retry.max_timeout_ms = 16000;
  options.round_timeout_ms = 120000;
  options.setup_timeout_ms = 240000;
  return options;
}

fl::JobResult RunDetaJob(int threads) {
  fl::ExecutionOptions options = JobOptions(threads);
  core::DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  core::DetaJob job(options, deta_options, MakeParties(2, options.train),
                    TinyMlpFactory(), SmallMnist(40, 6));
  return job.Run();
}

TEST(TelemetryDetaJobTest, FaultFreeRoundMetricsMatchSchedule) {
  constexpr int kParties = 2;
  constexpr int kAggregators = 2;
  constexpr int kRounds = 2;
  fl::JobResult result = RunDetaJob(/*threads=*/1);
  ASSERT_TRUE(result.ok()) << result.error;
  const TelemetrySnapshot& t = result.telemetry;

  EXPECT_EQ(CounterOr0(t, "core.deta_job.rounds"), static_cast<uint64_t>(kRounds));
  EXPECT_EQ(CounterOr0(t, "core.deta_party.rounds"),
            static_cast<uint64_t>(kRounds * kParties));
  EXPECT_EQ(CounterOr0(t, "core.deta_agg.rounds_aggregated"),
            static_cast<uint64_t>(kRounds * kAggregators));
  EXPECT_EQ(CounterOr0(t, "core.deta_agg.fragments"),
            static_cast<uint64_t>(kRounds * kAggregators * kParties));
  // Each party verifies + registers with every aggregator plus the key broker.
  EXPECT_EQ(CounterOr0(t, "core.auth.verify_ok"),
            static_cast<uint64_t>(kParties * (kAggregators + 1)));
  EXPECT_EQ(CounterOr0(t, "core.auth.register_ok"),
            static_cast<uint64_t>(kParties * (kAggregators + 1)));
  EXPECT_EQ(CounterOr0(t, "core.kb.fetch_ok"), static_cast<uint64_t>(kParties));
  // No retransmission timer fires, so round traffic is exactly its minimum: per round,
  // round.begin to every party and follower, an upload and a result per (aggregator,
  // party) edge, and each follower's round.done.
  EXPECT_EQ(CounterOr0(t, "net.bus.sent.round"),
            static_cast<uint64_t>(kRounds * (kParties + 2 * (kAggregators - 1) +
                                             2 * kAggregators * kParties)));

  // The fault-free contract the CI bench gate enforces.
  EXPECT_EQ(CounterOr0(t, "net.bus.dropped"), 0u);
  EXPECT_EQ(CounterOr0(t, "net.bus.fault_dropped"), 0u);
  EXPECT_EQ(CounterOr0(t, "net.bus.duplicated"), 0u);
  EXPECT_EQ(CounterOr0(t, "net.channel.open_rejected"), 0u);
  EXPECT_EQ(CounterOr0(t, "net.retry.exhausted"), 0u);
  EXPECT_EQ(CounterOr0(t, "core.role.malformed_messages"), 0u);
  EXPECT_EQ(CounterOr0(t, "net.bus.malformed_frames"), 0u);

  // Per-round spans recorded on both clocks.
  ASSERT_TRUE(t.histograms.count("span.core.deta_job.round.wall_s"));
  EXPECT_EQ(t.histograms.at("span.core.deta_job.round.wall_s").count,
            static_cast<uint64_t>(kRounds));
  ASSERT_TRUE(t.histograms.count("span.core.deta_job.round.sim_s"));
  EXPECT_GT(t.sim_seconds, 0.0);
}

TEST(TelemetryDetaJobTest, SnapshotsAreIdenticalAcrossThreadCounts) {
  std::vector<std::string> signatures;
  std::vector<std::vector<float>> params;
  for (int threads : {1, 2, 4}) {
    fl::JobResult result = RunDetaJob(threads);
    ASSERT_TRUE(result.ok()) << "threads=" << threads << ": " << result.error;
    signatures.push_back(result.telemetry.DeterministicSignature());
    params.push_back(result.final_params);
  }
  EXPECT_EQ(signatures[0], signatures[1]) << "threads=1 vs threads=2";
  EXPECT_EQ(signatures[0], signatures[2]) << "threads=1 vs threads=4";
  // The numeric contract the telemetry one piggybacks on.
  EXPECT_EQ(params[0], params[1]);
  EXPECT_EQ(params[0], params[2]);
}

}  // namespace
}  // namespace deta::telemetry
