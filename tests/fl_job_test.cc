// End-to-end centralized-baseline (FFL) training jobs: one aggregator receiving every
// party's full update (core::RunCentralizedBaseline).
#include <gtest/gtest.h>

#include <cstring>

#include "core/deta_job.h"
#include "crypto/sha256.h"

namespace deta::fl {
namespace {

ModelFactory SmallModelFactory() {
  return [] {
    Rng rng(1234);
    return nn::BuildConvNet8(1, 14, 10, rng);
  };
}


ModelFactory TinyMlpFactory() {
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

std::vector<std::unique_ptr<Party>> MakePartiesWith(const ModelFactory& factory, int count,
                                                    const TrainConfig& tc) {
  data::Dataset full = SmallMnist(40 * count, 5);
  Rng rng(9);
  auto shards = data::SplitIid(full, count, rng);
  std::vector<std::unique_ptr<Party>> parties;
  for (int i = 0; i < count; ++i) {
    parties.push_back(std::make_unique<Party>("party" + std::to_string(i),
                                              shards[static_cast<size_t>(i)], factory, tc,
                                              100 + i));
  }
  return parties;
}

std::vector<std::unique_ptr<Party>> MakeParties(int count, const TrainConfig& tc) {
  return MakePartiesWith(SmallModelFactory(), count, tc);
}

// The baseline runs real attestation and EC handshakes, which sanitizer builds slow
// ~10-20x; pace the handshake retries and the setup barrier for that.
ExecutionOptions BaselineOptions() {
  ExecutionOptions options;
  options.retry.max_attempts = 10;
  options.retry.max_timeout_ms = 8000;
  options.setup_timeout_ms = 180000;
  return options;
}

TEST(FflJobTest, FedAvgLossDecreases) {
  ExecutionOptions options = BaselineOptions();
  options.rounds = 4;
  options.train.batch_size = 16;
  options.train.local_epochs = 1;
  options.train.lr = 0.1f;
  JobResult result = core::RunCentralizedBaseline(options, MakeParties(3, options.train),
                                                  SmallModelFactory(), SmallMnist(60, 6));
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& metrics = result.rounds;
  ASSERT_EQ(metrics.size(), 4u);
  EXPECT_LT(metrics.back().loss, metrics.front().loss);
  EXPECT_GT(metrics.back().accuracy, 0.3);
  EXPECT_FALSE(result.final_params.empty());
  // Latency accumulates monotonically.
  for (size_t i = 1; i < metrics.size(); ++i) {
    EXPECT_GT(metrics[i].cumulative_latency_s, metrics[i - 1].cumulative_latency_s);
    EXPECT_GT(metrics[i].round_latency_s, 0.0);
  }
}

TEST(FflJobTest, FedSgdModeTrains) {
  ExecutionOptions options = BaselineOptions();
  options.rounds = 25;
  options.train.batch_size = 32;
  options.train.lr = 0.15f;
  options.train.kind = TrainConfig::UpdateKind::kGradient;
  JobResult result = core::RunCentralizedBaseline(options, MakeParties(3, options.train),
                                                  SmallModelFactory(), SmallMnist(60, 6));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_LT(result.rounds.back().loss, result.rounds.front().loss);
}

TEST(FflJobTest, CoordinateMedianConverges) {
  ExecutionOptions options = BaselineOptions();
  options.rounds = 4;
  options.algorithm = "coordinate_median";
  options.train.batch_size = 16;
  options.train.lr = 0.1f;
  JobResult result = core::RunCentralizedBaseline(options, MakeParties(3, options.train),
                                                  SmallModelFactory(), SmallMnist(60, 6));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_LT(result.rounds.back().loss, result.rounds.front().loss);
}

TEST(FflJobTest, PaillierMatchesPlainAveraging) {
  // One round of Paillier fusion must reproduce plain uniform averaging up to the
  // fixed-point codec's quantization.
  ExecutionOptions plain_options = BaselineOptions();
  plain_options.rounds = 1;
  plain_options.train.batch_size = 16;
  plain_options.train.lr = 0.1f;
  // Equal-sized shards make weighted and uniform averaging coincide.
  JobResult plain_result = core::RunCentralizedBaseline(
      plain_options, MakePartiesWith(TinyMlpFactory(), 3, plain_options.train),
      TinyMlpFactory(), SmallMnist(40, 6));

  ExecutionOptions paillier_options = plain_options;
  paillier_options.use_paillier = true;
  paillier_options.paillier_modulus_bits = 256;
  JobResult homomorphic_result = core::RunCentralizedBaseline(
      paillier_options, MakePartiesWith(TinyMlpFactory(), 3, paillier_options.train),
      TinyMlpFactory(), SmallMnist(40, 6));

  ASSERT_TRUE(plain_result.ok()) << plain_result.error;
  ASSERT_TRUE(homomorphic_result.ok()) << homomorphic_result.error;
  // The baseline's parties get their transform material and the Paillier key from the
  // key broker, exactly as DeTA parties do: one fetch each.
  const auto& counters = homomorphic_result.telemetry.counters;
  auto fetched = counters.find("core.kb.fetch_ok");
  ASSERT_NE(fetched, counters.end());
  EXPECT_EQ(fetched->second, 3u);
  const auto& a = plain_result.final_params;
  const auto& b = homomorphic_result.final_params;
  ASSERT_EQ(a.size(), b.size());
  float max_diff = 0.0f;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  EXPECT_LT(max_diff, 1e-4f);  // fixed-point scale 2^-20 per addend
}

TEST(PartyTest, GradientModeReturnsGradients) {
  TrainConfig tc;
  tc.kind = TrainConfig::UpdateKind::kGradient;
  tc.batch_size = 8;
  data::Dataset shard = SmallMnist(16, 3);
  Party party("p", shard, SmallModelFactory(), tc, 1);
  auto factory = SmallModelFactory();
  auto model = factory();
  std::vector<float> global = model->GetFlatParams();
  auto result = party.RunLocalRound(global, 1);
  EXPECT_EQ(result.update.values.size(), global.size());
  EXPECT_DOUBLE_EQ(result.update.weight, 16.0);
  EXPECT_GT(result.train_seconds, 0.0);
  // A gradient is not a parameter vector: norms differ wildly.
  double norm = 0;
  for (float v : result.update.values) {
    norm += static_cast<double>(v) * v;
  }
  EXPECT_GT(norm, 0.0);
}

TEST(PartyTest, ParameterModeChangesParams) {
  TrainConfig tc;
  tc.batch_size = 8;
  tc.local_epochs = 1;
  tc.lr = 0.1f;
  data::Dataset shard = SmallMnist(16, 3);
  Party party("p", shard, SmallModelFactory(), tc, 1);
  auto factory = SmallModelFactory();
  auto model = factory();
  std::vector<float> global = model->GetFlatParams();
  auto result = party.RunLocalRound(global, 1);
  EXPECT_NE(result.update.values, global);
}

// Pins training arithmetic across build types. The digest was computed by the default
// build at -O2; the -O0, -O3 and sanitizer builds must reproduce it bit for bit. A
// contracted multiply-add or a reordered sum anywhere in a forward pass, a backward pass,
// an optimizer step or the average moves it.
TEST(PartyTest, TrainingKnownAnswerDigest) {
  crypto::Sha256 h;
  auto hash_floats = [&h](const std::vector<float>& values) {
    Bytes le;
    for (float v : values) {
      uint32_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      AppendU32(le, bits);
    }
    h.Update(le);
  };
  TrainConfig tc;
  tc.batch_size = 8;
  tc.lr = 0.1f;
  tc.momentum = 0.9f;
  // Three MLP parties on 20, 13 and 8 examples: full and partial batches, and unequal
  // weights in the average.
  std::vector<ModelUpdate> updates;
  for (int n : {20, 13, 8}) {
    Party party("mlp", SmallMnist(n, static_cast<uint64_t>(n)), TinyMlpFactory(), tc,
                static_cast<uint64_t>(n));
    updates.push_back(party.RunLocalRound(TinyMlpFactory()()->GetFlatParams(), 1).update);
    hash_floats(updates.back().values);
  }
  hash_floats(IterativeAveraging().Aggregate(updates));
  // ConvNet-8: a parameter round over two batches, then one batch's gradient.
  Party conv("conv", SmallMnist(12, 4), SmallModelFactory(), tc, 4);
  std::vector<float> global = SmallModelFactory()()->GetFlatParams();
  hash_floats(conv.RunLocalRound(global, 1).update.values);
  tc.kind = TrainConfig::UpdateKind::kGradient;
  Party conv_sgd("conv", SmallMnist(12, 5), SmallModelFactory(), tc, 5);
  hash_floats(conv_sgd.RunLocalRound(global, 1).update.values);
  auto digest = h.Finish();
  EXPECT_EQ(ToHex(Bytes(digest.begin(), digest.end())),
            "40f9cde2b7d2d50cecef54382ae76415f6097f33f15a35025675576a450115e1");
}

}  // namespace
}  // namespace deta::fl
