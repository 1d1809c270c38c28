// Full-system DeTA tests: the threaded multi-aggregator pipeline must reproduce a
// sequential centralized reference bit-exactly, and breached aggregators must hold only
// transformed fragments.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <set>
#include <thread>

#include "cc/attestation_proxy.h"
#include "common/check.h"
#include "common/telemetry.h"
#include "core/deta_job.h"

namespace deta::core {
namespace {

fl::ModelFactory SmallModelFactory() {
  return [] {
    Rng rng(1234);
    return nn::BuildConvNet8(1, 14, 10, rng);
  };
}


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

std::vector<std::unique_ptr<fl::Party>> MakePartiesWith(const fl::ModelFactory& factory,
                                                        int count,
                                                        const fl::TrainConfig& tc) {
  data::Dataset full = SmallMnist(32 * count, 5);
  Rng rng(9);
  auto shards = data::SplitIid(full, count, rng);
  std::vector<std::unique_ptr<fl::Party>> parties;
  for (int i = 0; i < count; ++i) {
    parties.push_back(std::make_unique<fl::Party>("party" + std::to_string(i),
                                                  shards[static_cast<size_t>(i)], factory,
                                                  tc, 100 + i));
  }
  return parties;
}

std::vector<std::unique_ptr<fl::Party>> MakeParties(int count, const fl::TrainConfig& tc) {
  return MakePartiesWith(SmallModelFactory(), count, tc);
}

fl::ExecutionOptions BaseOptions() {
  fl::ExecutionOptions options;
  options.rounds = 2;
  options.train.batch_size = 16;
  options.train.local_epochs = 1;
  options.train.lr = 0.1f;
  return options;
}

// Sequential centralized oracle sharing no code with DetaJob's round engine: every party
// trains on the same params, the algorithm aggregates the full updates in party-name
// order (the order DetaAggregator stages them in), and the result is applied as a FedSGD
// step or assigned. Paillier fusion is a uniform mean up to codec quantization.
fl::JobResult SequentialReference(const fl::ExecutionOptions& options,
                                  std::vector<std::unique_ptr<fl::Party>> parties,
                                  const fl::ModelFactory& factory, data::Dataset eval) {
  std::sort(parties.begin(), parties.end(),
            [](const auto& a, const auto& b) { return a->name() < b->name(); });
  auto algorithm =
      fl::MakeAlgorithm(options.use_paillier ? "iterative_averaging" : options.algorithm);
  std::unique_ptr<nn::Model> model = factory();
  std::vector<float> params = model->GetFlatParams();
  fl::JobResult result;
  for (int round = 1; round <= options.rounds; ++round) {
    std::vector<fl::ModelUpdate> updates;
    for (auto& party : parties) {
      updates.push_back(party->RunLocalRound(params, round).update);
      if (options.use_paillier) {
        updates.back().weight = 1.0;
      }
    }
    std::vector<float> aggregated = algorithm->Aggregate(updates);
    const bool fedsgd = options.train.kind == fl::TrainConfig::UpdateKind::kGradient;
    for (size_t i = 0; i < params.size(); ++i) {
      params[i] = fedsgd ? params[i] - options.train.lr * aggregated[i] : aggregated[i];
    }
    model->SetFlatParams(params);
    fl::RoundMetrics m;
    m.round = round;
    nn::Evaluation evaluation = nn::Evaluate(*model, eval.images, eval.labels, eval.classes);
    m.loss = evaluation.loss;
    m.accuracy = evaluation.accuracy;
    result.rounds.push_back(m);
  }
  result.final_params = params;
  return result;
}

float MaxAbsDiff(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  float max_diff = 0.0f;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

TEST(DetaJobTest, MatchesCentralizedBaselineBitExactly) {
  fl::ExecutionOptions base = BaseOptions();
  fl::JobResult ffl_result = SequentialReference(base, MakeParties(3, base.train),
                                                 SmallModelFactory(), SmallMnist(40, 6));

  DetaOptions deta_options;
  deta_options.num_aggregators = 3;
  DetaJob deta(base, deta_options, MakeParties(3, base.train), SmallModelFactory(),
               SmallMnist(40, 6));
  fl::JobResult deta_result = deta.Run();

  ASSERT_EQ(ffl_result.rounds.size(), deta_result.rounds.size());
  for (size_t i = 0; i < ffl_result.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ffl_result.rounds[i].loss, deta_result.rounds[i].loss)
        << "round " << i;
    EXPECT_DOUBLE_EQ(ffl_result.rounds[i].accuracy, deta_result.rounds[i].accuracy);
  }
  EXPECT_EQ(ffl_result.final_params, deta_result.final_params);
}

// Each party derives its own layout from the key-broker material, and each round's
// shuffle tables once, holding them from Trans to Trans^-1. The job itself derives no
// layout.
TEST(DetaJobTest, EachPartyDerivesEachRoundPermutationOnce) {
  fl::ExecutionOptions base = BaseOptions();
  const int kParties = 3;
  DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  // Counted from before construction, so a layout built by the job itself would show.
  const telemetry::TelemetrySnapshot before = telemetry::Snapshot();
  DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), kParties, base.train),
               TinyMlpFactory(), SmallMnist(30, 6));
  ASSERT_EQ(deta.Run().status, fl::JobStatus::kOk);
  const telemetry::TelemetrySnapshot delta = telemetry::Delta(before, telemetry::Snapshot());
  auto counter = [&](const std::string& name) {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? uint64_t{0} : it->second;
  };
  EXPECT_EQ(counter("core.transform.layouts"), static_cast<uint64_t>(kParties));
  EXPECT_EQ(counter("core.transform.permutations"),
            static_cast<uint64_t>(base.rounds * kParties * deta_options.num_aggregators));
}

TEST(DetaJobTest, CoordinateMedianMatchesBaseline) {
  fl::ExecutionOptions base = BaseOptions();
  base.algorithm = "coordinate_median";
  fl::JobResult ffl_result = SequentialReference(base, MakeParties(3, base.train),
                                                 SmallModelFactory(), SmallMnist(40, 6));

  DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  DetaJob deta(base, deta_options, MakeParties(3, base.train), SmallModelFactory(),
               SmallMnist(40, 6));
  fl::JobResult deta_result = deta.Run();
  EXPECT_EQ(ffl_result.final_params, deta_result.final_params);
}

TEST(DetaJobTest, FedSgdMatchesBaseline) {
  fl::ExecutionOptions base = BaseOptions();
  base.rounds = 3;
  base.train.kind = fl::TrainConfig::UpdateKind::kGradient;
  fl::JobResult ffl_result = SequentialReference(base, MakeParties(2, base.train),
                                                 SmallModelFactory(), SmallMnist(40, 6));

  DetaOptions deta_options;
  deta_options.num_aggregators = 3;
  DetaJob deta(base, deta_options, MakeParties(2, base.train), SmallModelFactory(),
               SmallMnist(40, 6));
  fl::JobResult deta_result = deta.Run();

  EXPECT_EQ(MaxAbsDiff(ffl_result.final_params, deta_result.final_params), 0.0f);
}

TEST(DetaJobTest, CustomProportionsWork) {
  fl::ExecutionOptions base = BaseOptions();
  base.rounds = 1;
  DetaOptions deta_options;
  deta_options.num_aggregators = 3;
  deta_options.proportions = {0.6, 0.2, 0.2};
  DetaJob deta(base, deta_options, MakeParties(2, base.train), SmallModelFactory(),
               SmallMnist(30, 6));
  fl::JobResult result = deta.Run();
  EXPECT_EQ(result.rounds.size(), 1u);
  // Partition sizes honor the proportions.
  const auto& mapper = deta.transform().mapper();
  EXPECT_GT(mapper.PartitionSize(0), mapper.PartitionSize(1) * 2);
}

TEST(DetaJobTest, PaillierFusionMatchesBaselineApproximately) {
  fl::ExecutionOptions base = BaseOptions();
  base.rounds = 1;
  base.use_paillier = true;
  base.paillier_modulus_bits = 256;
  fl::JobResult ffl_result =
      SequentialReference(base, MakePartiesWith(TinyMlpFactory(), 2, base.train),
                          TinyMlpFactory(), SmallMnist(30, 6));

  DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 2, base.train),
               TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult deta_result = deta.Run();

  EXPECT_LT(MaxAbsDiff(ffl_result.final_params, deta_result.final_params), 1e-4f);
}

// §6 worst case: dump every aggregator CVM and verify what leaks is only the transformed
// fragments — no aggregator holds a full update, and the fragments differ from the true
// in-order coordinate values.
TEST(DetaJobTest, BreachedAggregatorsHoldOnlyFragments) {
  fl::ExecutionOptions base = BaseOptions();
  base.rounds = 1;
  DetaOptions deta_options;
  deta_options.num_aggregators = 3;
  DetaJob deta(base, deta_options, MakeParties(2, base.train), SmallModelFactory(),
               SmallMnist(30, 6));
  deta.Run();

  int64_t total_params = 0;
  {
    auto factory = SmallModelFactory();
    total_params = factory()->NumParameters();
  }
  for (const auto& cvm : deta.aggregator_cvms()) {
    auto dump = cvm->Breach();
    EXPECT_FALSE(dump.empty());
    for (const auto& [region, plaintext] : dump) {
      if (region.rfind("update:", 0) == 0) {
        fl::ModelUpdate fragment = fl::DeserializeUpdate(plaintext);
        // Fragment, not the whole update.
        EXPECT_LT(static_cast<int64_t>(fragment.values.size()), total_params);
        EXPECT_GT(fragment.values.size(), 0u);
      }
    }
  }
}

// Guest memory keeps only the latest round: after a 3-round job every aggregator CVM
// holds round-3 regions besides its auth token, and the bytes it retains do not grow
// with the round count.
TEST(DetaJobTest, AggregatorCvmsKeepOnlyTheLatestRound) {
  auto run = [](int rounds) {
    fl::ExecutionOptions base = BaseOptions();
    base.rounds = rounds;
    DetaOptions deta_options;
    deta_options.num_aggregators = 3;
    auto job = std::make_unique<DetaJob>(base, deta_options,
                                         MakePartiesWith(TinyMlpFactory(), 2, base.train),
                                         TinyMlpFactory(), SmallMnist(30, 6));
    EXPECT_TRUE(job->Run().ok());
    return job;
  };
  auto retained_bytes = [](const DetaJob& job) {
    size_t bytes = 0;
    for (const auto& cvm : job.aggregator_cvms()) {
      for (const auto& [region, plaintext] : cvm->Breach()) {
        bytes += plaintext.size();
      }
    }
    return bytes;
  };

  std::unique_ptr<DetaJob> three = run(3);
  for (const auto& cvm : three->aggregator_cvms()) {
    auto dump = cvm->Breach();
    EXPECT_TRUE(dump.count("aggregated:r3"));
    EXPECT_TRUE(dump.count("update:party0:r3"));
    EXPECT_TRUE(dump.count("update:party1:r3"));
    for (const auto& [region, plaintext] : dump) {
      if (region != cc::kTokenRegion) {
        EXPECT_TRUE(region.ends_with(":r3")) << cvm->id() << " still holds " << region;
      }
    }
  }
  EXPECT_EQ(retained_bytes(*run(2)), retained_bytes(*run(4)));
}

TEST(DetaJobTest, SingleAggregatorNoTransformModeWorks) {
  // §4.2: users can run one CVM-protected aggregator with partitioning/shuffling off
  // (e.g. for FLTrust-style algorithms needing the full model).
  fl::ExecutionOptions base = BaseOptions();
  base.rounds = 1;
  DetaOptions deta_options;
  deta_options.num_aggregators = 1;
  deta_options.enable_partition = false;
  deta_options.enable_shuffle = false;
  DetaJob deta(base, deta_options, MakeParties(2, base.train), SmallModelFactory(),
               SmallMnist(30, 6));
  fl::JobResult deta_result = deta.Run();
  EXPECT_EQ(deta_result.rounds.size(), 1u);

  fl::JobResult ffl_result = SequentialReference(base, MakeParties(2, base.train),
                                                 SmallModelFactory(), SmallMnist(30, 6));
  EXPECT_EQ(ffl_result.final_params, deta_result.final_params);
}

// Records when round 1's local training starts, the first step after setup.
class FirstRoundClockParty : public fl::Party {
 public:
  FirstRoundClockParty(std::string name, data::Dataset shard, const fl::TrainConfig& tc,
                       uint64_t seed, std::atomic<int64_t>* first_round_ticks)
      : fl::Party(std::move(name), std::move(shard), TinyMlpFactory(), tc, seed),
        first_round_ticks_(first_round_ticks) {}

  LocalResult RunLocalRound(const std::vector<float>& global_params, int round) override {
    if (round == 1) {
      int64_t unset = 0;
      first_round_ticks_->compare_exchange_strong(
          unset, std::chrono::steady_clock::now().time_since_epoch().count());
    }
    return fl::Party::RunLocalRound(global_params, round);
  }

 private:
  std::atomic<int64_t>* first_round_ticks_;
};

// setup_seconds is wall time from the start of construction until round 1 starts:
// attestation, the key-broker fetch, every party handshake and the ready barrier.
// Delaying every two-phase-auth message by 200 ms makes the handshakes most of that
// interval, so a figure that left them out would fall far short of it.
TEST(DetaJobTest, SetupSecondsCoversHandshakes) {
  fl::ExecutionOptions base = BaseOptions();
  base.rounds = 1;
  base.fault_plan.seed = 3;
  base.fault_plan.delay_ms = 200;
  net::EdgeFault slow_auth;
  slow_auth.type_prefix = "auth";
  slow_auth.rates.delay = 1.0;
  base.fault_plan.overrides.push_back(slow_auth);
  // A delayed handshake round trip takes about 2 x 200 ms, plus queueing behind the
  // other party at a single-threaded responder; no retransmission should race it.
  base.retry.initial_timeout_ms = 2000;
  DetaOptions deta_options;
  deta_options.num_aggregators = 2;

  std::atomic<int64_t> first_round_ticks{0};
  Rng rng(9);
  std::vector<data::Dataset> shards = data::SplitIid(SmallMnist(64, 5), 2, rng);
  std::vector<std::unique_ptr<fl::Party>> parties;
  for (int i = 0; i < 2; ++i) {
    parties.push_back(std::make_unique<FirstRoundClockParty>(
        "party" + std::to_string(i), shards[static_cast<size_t>(i)], base.train, 100 + i,
        &first_round_ticks));
  }
  const int64_t start_ticks = std::chrono::steady_clock::now().time_since_epoch().count();
  DetaJob deta(base, deta_options, std::move(parties), TinyMlpFactory(),
               SmallMnist(30, 6));
  fl::JobResult result = deta.Run();
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_FALSE(result.rounds.empty());
  ASSERT_NE(first_round_ticks.load(), 0);
  const double until_first_round =
      std::chrono::duration<double>(
          std::chrono::steady_clock::duration(first_round_ticks.load() - start_ticks))
          .count();
  EXPECT_GE(result.setup_seconds, 0.9 * until_first_round);
  EXPECT_LE(result.setup_seconds, until_first_round);
  // Setup stays out of per-round latency.
  EXPECT_GT(result.rounds[0].round_latency_s, 0.0);
}

// The modelled round latency bills the initiator/follower round.done exchange only when
// a follower exists to sync with; the upload and download hops each carry one RTT.
TEST(DetaJobTest, SyncRttChargedOnlyWithMultipleAggregators) {
  for (int aggregators : {1, 2}) {
    fl::ExecutionOptions base = BaseOptions();
    base.rounds = 1;
    base.latency.rtt_seconds = 100.0;
    base.latency.bandwidth_bytes_per_sec = 1e18;
    DetaOptions deta_options;
    deta_options.num_aggregators = aggregators;
    DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 2, base.train),
                 TinyMlpFactory(), SmallMnist(30, 6));
    fl::JobResult result = deta.Run();
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.rounds.size(), 1u);
    const double latency = result.rounds[0].round_latency_s;
    if (aggregators == 1) {
      EXPECT_GE(latency, 200.0);
      EXPECT_LT(latency, 300.0);
    } else {
      EXPECT_GE(latency, 300.0);
    }
  }
}

// The deterministic parallel layer must not change results: the whole FFL-vs-DeTA
// bit-exactness contract has to hold at any thread count.
TEST(DetaJobTest, ThreadCountDoesNotChangeResults) {
  std::vector<float> reference;
  for (int threads : {1, 2, 8}) {
    fl::ExecutionOptions base = BaseOptions();
    base.rounds = 1;
    base.threads = threads;
    DetaOptions deta_options;
    deta_options.num_aggregators = 3;
    DetaJob deta(base, deta_options, MakeParties(3, base.train), SmallModelFactory(),
                 SmallMnist(30, 6));
    fl::JobResult result = deta.Run();
    if (reference.empty()) {
      reference = result.final_params;
    } else {
      EXPECT_EQ(reference, result.final_params) << "threads=" << threads;
    }
  }
}

// The acceptance bar for the robustness layer: a seeded plan dropping ~5% of all
// protocol messages — including auth handshake and key-broker traffic — must converge
// bit-identically to the fault-free run, because every lost message is retransmitted
// and every receiver is idempotent.
TEST(DetaJobFaultTest, FivePercentDropConvergesBitExact) {
  fl::ExecutionOptions base = BaseOptions();
  DetaOptions deta_options;
  deta_options.num_aggregators = 3;

  DetaJob clean(base, deta_options, MakePartiesWith(TinyMlpFactory(), 3, base.train),
                TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult clean_result = clean.Run();
  ASSERT_EQ(clean_result.status, fl::JobStatus::kOk);

  fl::ExecutionOptions faulty = base;
  faulty.fault_plan.seed = 7;
  faulty.fault_plan.default_rates.drop = 0.05;
  // Guarantee the interesting setup paths are hit regardless of how load-dependent
  // retransmissions shift the per-edge schedules: burst-drop exactly the first
  // two-phase-auth challenge and the first key-broker fetch.
  net::EdgeFault first_auth;
  first_auth.type_prefix = "auth.challenge";
  first_auth.rates.drop = 1.0;
  first_auth.max_faults = 1;
  net::EdgeFault first_fetch;
  first_fetch.type_prefix = "kb.fetch";
  first_fetch.rates.drop = 1.0;
  first_fetch.max_faults = 1;
  faulty.fault_plan.overrides = {first_auth, first_fetch};
  DetaJob deta(faulty, deta_options, MakePartiesWith(TinyMlpFactory(), 3, faulty.train),
               TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult result = deta.Run();

  EXPECT_EQ(result.status, fl::JobStatus::kOk);
  EXPECT_TRUE(result.ok());
  // The plan actually exercised the interesting paths: at least one two-phase-auth
  // message and one key-broker message were lost and recovered.
  auto fault_dropped = [&](const std::string& topic) {
    auto it = result.telemetry.counters.find("net.bus.fault_dropped." + topic);
    return it == result.telemetry.counters.end() ? uint64_t{0} : it->second;
  };
  EXPECT_GE(fault_dropped("auth"), 1u);
  EXPECT_GE(fault_dropped("kb"), 1u);
  // No party was fully dropped, so every round completed with everyone aboard...
  ASSERT_EQ(result.rounds.size(), clean_result.rounds.size());
  EXPECT_TRUE(result.per_round_dropouts.empty());
  // ...and the result is bitwise identical to the fault-free run.
  EXPECT_EQ(result.final_params, clean_result.final_params);
  for (size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.rounds[i].loss, clean_result.rounds[i].loss) << "round " << i;
  }
}

// A lost round result makes the party re-send its upload and the aggregator re-serve
// its cached result. Both are counted, and the recovered job is bit-identical.
TEST(DetaJobFaultTest, LostResultIsReservedAndCounted) {
  fl::ExecutionOptions base = BaseOptions();
  DetaOptions deta_options;
  deta_options.num_aggregators = 3;
  DetaJob clean(base, deta_options, MakePartiesWith(TinyMlpFactory(), 3, base.train),
                TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult clean_result = clean.Run();
  ASSERT_EQ(clean_result.status, fl::JobStatus::kOk);

  fl::ExecutionOptions faulty = base;
  faulty.fault_plan.seed = 3;
  net::EdgeFault lost_result;
  lost_result.from = "aggregator1";
  lost_result.to = "party0";
  lost_result.type_prefix = kRoundResult;
  lost_result.rates.drop = 1.0;
  lost_result.max_faults = 1;
  faulty.fault_plan.overrides = {lost_result};
  DetaJob deta(faulty, deta_options, MakePartiesWith(TinyMlpFactory(), 3, faulty.train),
               TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult result = deta.Run();
  ASSERT_EQ(result.status, fl::JobStatus::kOk);

  auto counter = [&](const std::string& name) {
    auto it = result.telemetry.counters.find(name);
    return it == result.telemetry.counters.end() ? uint64_t{0} : it->second;
  };
  EXPECT_GE(counter("net.bus.fault_dropped.round"), 1u);
  EXPECT_GE(counter("core.deta_party.upload_resends"), 1u);
  EXPECT_GE(counter("core.deta_agg.results_reserved"), 1u);
  EXPECT_TRUE(result.per_round_dropouts.empty());
  EXPECT_EQ(result.final_params, clean_result.final_params);
}

// A party whose uploads never arrive is skipped per round — recorded, not fatal — and
// the same fault seed reproduces the same dropout schedule.
TEST(DetaJobFaultTest, DropoutScheduleIsDeterministic) {
  auto run = [] {
    fl::ExecutionOptions base = BaseOptions();
    base.fault_plan.seed = 5;
    net::EdgeFault fault;
    fault.from = "party2";
    fault.type_prefix = "round.upload";
    fault.rates.drop = 1.0;
    base.fault_plan.overrides.push_back(fault);
    DetaOptions deta_options;
    deta_options.num_aggregators = 2;
    deta_options.quorum = 2;  // aggregate once the two live parties are in
    DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 3, base.train),
                 TinyMlpFactory(), SmallMnist(30, 6));
    return deta.Run();
  };
  fl::JobResult first = run();
  EXPECT_EQ(first.status, fl::JobStatus::kOk);
  ASSERT_EQ(first.rounds.size(), 2u);
  std::map<int, std::vector<std::string>> expected = {{1, {"party2"}}, {2, {"party2"}}};
  EXPECT_EQ(first.per_round_dropouts, expected);

  fl::JobResult second = run();
  EXPECT_EQ(second.per_round_dropouts, first.per_round_dropouts);
  EXPECT_EQ(second.final_params, first.final_params);
}

// Under a quorum an aggregator sums fewer Paillier fragments than there are parties.
// Parties must decode and average over the count it summed, as IterativeAveraging does
// on the plain path; decoding with num_parties offsets every coordinate by a lane.
TEST(DetaJobFaultTest, PaillierQuorumMatchesPlain) {
  auto run = [](bool use_paillier) {
    fl::ExecutionOptions base = BaseOptions();
    base.use_paillier = use_paillier;
    base.paillier_modulus_bits = 256;
    base.fault_plan.seed = 5;
    net::EdgeFault fault;
    fault.from = "party2";
    fault.type_prefix = "round.upload";
    fault.rates.drop = 1.0;
    base.fault_plan.overrides.push_back(fault);
    DetaOptions deta_options;
    deta_options.num_aggregators = 2;
    deta_options.quorum = 2;
    DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 3, base.train),
                 TinyMlpFactory(), SmallMnist(30, 6));
    return deta.Run();
  };
  fl::JobResult plain = run(false);
  fl::JobResult paillier = run(true);
  ASSERT_EQ(plain.status, fl::JobStatus::kOk);
  ASSERT_EQ(paillier.status, fl::JobStatus::kOk);
  std::map<int, std::vector<std::string>> expected = {{1, {"party2"}}, {2, {"party2"}}};
  EXPECT_EQ(paillier.per_round_dropouts, expected);
  EXPECT_LT(MaxAbsDiff(plain.final_params, paillier.final_params), 1e-4f);
}

// When no quorum can form, the job ends with a typed error instead of hanging.
TEST(DetaJobFaultTest, QuorumFailureIsTypedNotAHang) {
  fl::ExecutionOptions base = BaseOptions();
  base.fault_plan.seed = 5;
  net::EdgeFault fault;
  fault.type_prefix = "round.upload";  // every upload from every party
  fault.rates.drop = 1.0;
  base.fault_plan.overrides.push_back(fault);
  base.round_timeout_ms = 700;    // keep the doomed round short; setup pacing stays default
  base.setup_timeout_ms = 120000;  // sanitizer builds slow the auth handshakes ~10-20x
  DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 2, base.train),
               TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult result = deta.Run();
  EXPECT_EQ(result.status, fl::JobStatus::kQuorumFailed);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error.empty());
  EXPECT_TRUE(result.rounds.empty());
}

// A failed quorum round reports the fragments it needed: the quorum, not every party.
TEST(DetaJobFaultTest, QuorumFailureReportsTheQuorumNeeded) {
  fl::ExecutionOptions base = BaseOptions();
  base.fault_plan.seed = 5;
  net::EdgeFault fault;
  fault.type_prefix = "round.upload";  // every upload from every party
  fault.rates.drop = 1.0;
  base.fault_plan.overrides.push_back(fault);
  base.round_timeout_ms = 700;
  base.setup_timeout_ms = 120000;
  DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  deta_options.quorum = 2;
  DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 3, base.train),
               TinyMlpFactory(), SmallMnist(30, 6));
  fl::JobResult result = deta.Run();
  EXPECT_EQ(result.status, fl::JobStatus::kQuorumFailed);
  EXPECT_NE(result.error.find("(0/2 fragments)"), std::string::npos) << result.error;
}

// Runs the two-party, two-aggregator job on a bus the test owns, beside an endpoint
// outside the job: |before_run| uses it once the roles' endpoints exist, |during_run| on
// a thread of its own while Run() runs.
using Intrusion = std::function<void(net::Endpoint& intruder)>;
fl::JobResult RunWithIntruder(const Intrusion& before_run, const Intrusion& during_run) {
  fl::ExecutionOptions base = BaseOptions();
  DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  net::MessageBus bus;
  DetaDeployment deployment;
  deployment.transport = &bus;
  DetaJob deta(base, deta_options, MakePartiesWith(TinyMlpFactory(), 2, base.train),
               TinyMlpFactory(), SmallMnist(30, 6), deployment);
  std::unique_ptr<net::Endpoint> intruder = bus.CreateEndpoint("intruder");
  before_run(*intruder);
  std::thread alongside([&] { during_run(*intruder); });
  fl::JobResult result = deta.Run();
  alongside.join();
  return result;
}

void NoIntrusion(net::Endpoint&) {}

uint64_t CounterOr0(const fl::JobResult& result, const std::string& name) {
  auto it = result.telemetry.counters.find(name);
  return it == result.telemetry.counters.end() ? 0 : it->second;
}

// The process-wide count of |name| so far, for a thread outside the job.
uint64_t GlobalCount(const std::string& name) {
  telemetry::TelemetrySnapshot now = telemetry::Snapshot();
  auto it = now.counters.find(name);
  return it == now.counters.end() ? 0 : it->second;
}

void ExpectSameRun(const fl::JobResult& result, const fl::JobResult& clean) {
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.rounds.size(), clean.rounds.size());
  for (size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.rounds[i].loss, clean.rounds[i].loss) << "round " << i;
  }
  EXPECT_EQ(result.final_params, clean.final_params);
  EXPECT_EQ(result.telemetry.DeterministicSignature("core.deta_job."),
            clean.telemetry.DeterministicSignature("core.deta_job."));
}

// Any endpoint can reach a role (over TCP, any connected peer). An empty round.begin to
// a party and an empty round.done to the initiator do not parse: each role drops and
// counts its message, and the job runs as if neither had been sent.
TEST(DetaJobFaultTest, MalformedProtocolMessagesAreDroppedAndCounted) {
  fl::JobResult clean = RunWithIntruder(NoIntrusion, NoIntrusion);
  ASSERT_TRUE(clean.ok()) << clean.error;
  EXPECT_EQ(CounterOr0(clean, "core.role.malformed_messages"), 0u);
  fl::JobResult result = RunWithIntruder(
      [](net::Endpoint& intruder) {
        EXPECT_TRUE(intruder.Send("party0", kRoundBegin, {}));
        EXPECT_TRUE(intruder.Send("aggregator0", kRoundDone, {}));
      },
      NoIntrusion);
  ExpectSameRun(result, clean);
  EXPECT_EQ(CounterOr0(result, "core.role.malformed_messages"), 2u);
}

// The observer parses reports under the same guard: an empty party.timing is dropped
// and counted, not thrown out of Run().
TEST(DetaJobFaultTest, MalformedObserverReportIsDropped) {
  fl::JobResult clean = RunWithIntruder(NoIntrusion, NoIntrusion);
  ASSERT_TRUE(clean.ok()) << clean.error;
  fl::JobResult result = RunWithIntruder(NoIntrusion, [](net::Endpoint& intruder) {
    // Run() creates the observer's endpoint. A report sent before it exists is lost and
    // counted in net.bus.dropped.party (no role sends one that early), so re-send until
    // a send is not counted there.
    auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      uint64_t lost = GlobalCount("net.bus.dropped.party");
      intruder.Send("observer", kPartyTiming, {});
      if (GlobalCount("net.bus.dropped.party") == lost) {
        break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), give_up);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  ExpectSameRun(result, clean);
  EXPECT_EQ(CounterOr0(result, "core.role.malformed_messages"), 1u);
}

// A quorum outside [0, parties] would leave every round to fail at its deadline, so the
// job rejects it at construction.
TEST(DetaJobFaultTest, QuorumOutsidePartyCountIsRejected) {
  fl::ExecutionOptions base = BaseOptions();
  for (int quorum : {-1, 3}) {
    DetaOptions deta_options;
    deta_options.quorum = quorum;
    EXPECT_THROW(DetaJob(base, deta_options, MakePartiesWith(TinyMlpFactory(), 2, base.train),
                         TinyMlpFactory(), SmallMnist(30, 6)),
                 CheckFailure);
  }
}

}  // namespace
}  // namespace deta::core
