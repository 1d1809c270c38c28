// End-to-end security analysis (paper §6 worst case), wired through the *real* system:
// run a DeTA training round, breach every aggregator CVM (simulated SEV compromise),
// reassemble what the adversary actually holds, and run the DLG attack on it.
//
// This differs from attacks_test.cc, which models the observation directly: here the
// fragments come out of the breached CVMs of a live threaded deployment.
#include <gtest/gtest.h>

#include <span>

#include "attacks/gradient_inversion.h"
#include "core/deta_job.h"

namespace deta {
namespace {

struct PipelineRun {
  std::unique_ptr<core::DetaJob> job;
  std::vector<fl::ModelUpdate> breached_fragments;  // per aggregator, party0's fragment
  data::Dataset party0_data;
  std::vector<float> initial_params;
};

// Runs one FedSGD round with a single-example party0 shard, then breaches all CVMs.
PipelineRun RunAndBreach(bool enable_shuffle) {
  auto factory = [] {
    Rng rng(1234);
    return nn::BuildLeNet(1, 16, 10, rng);
  };

  data::SyntheticConfig dc;
  dc.num_examples = 8;
  dc.classes = 10;
  dc.channels = 1;
  dc.image_size = 16;
  dc.style = data::ImageStyle::kBlobs;
  dc.seed = 11;
  dc.prototype_seed = 101;
  data::Dataset full = data::GenerateSynthetic(dc);

  fl::TrainConfig tc;
  tc.kind = fl::TrainConfig::UpdateKind::kGradient;
  tc.batch_size = 1;
  tc.lr = 0.1f;

  PipelineRun run;
  // party0 holds exactly one example: its uploaded gradient is the attack target.
  run.party0_data = full.Subset({0});
  data::Dataset party1_data = full.Subset({1, 2, 3});

  std::vector<std::unique_ptr<fl::Party>> parties;
  parties.push_back(std::make_unique<fl::Party>("party0", run.party0_data, factory, tc, 1));
  parties.push_back(std::make_unique<fl::Party>("party1", party1_data, factory, tc, 2));

  fl::ExecutionOptions options;
  options.rounds = 1;
  options.train = tc;
  core::DetaOptions deta_options;
  deta_options.num_aggregators = 2;
  deta_options.enable_partition = true;
  deta_options.enable_shuffle = enable_shuffle;

  run.job = std::make_unique<core::DetaJob>(options, deta_options, std::move(parties),
                                            factory, full.Subset({4, 5, 6, 7}));
  {
    auto model = factory();
    run.initial_params = model->GetFlatParams();
  }
  run.job->Run();

  // The SEV breach: dump each aggregator CVM and pull party0's staged fragment.
  for (const auto& cvm : run.job->aggregator_cvms()) {
    auto dump = cvm->Breach();
    auto it = dump.find("update:party0:r1");
    EXPECT_NE(it, dump.end()) << "CVM " << cvm->id() << " holds no fragment from party0";
    if (it != dump.end()) {
      run.breached_fragments.push_back(fl::DeserializeUpdate(it->second));
    }
  }
  return run;
}

TEST(SecurityE2eTest, BreachYieldsDisjointFragmentsCoveringTheUpdate) {
  PipelineRun run = RunAndBreach(/*enable_shuffle=*/true);
  ASSERT_EQ(run.breached_fragments.size(), 2u);
  size_t total = 0;
  for (const auto& fragment : run.breached_fragments) {
    total += fragment.values.size();
  }
  EXPECT_EQ(total, run.initial_params.size());
  // No aggregator holds more than its share.
  for (const auto& fragment : run.breached_fragments) {
    EXPECT_LT(fragment.values.size(), run.initial_params.size());
  }
}

TEST(SecurityE2eTest, BreachedFragmentsAreTheTransformedVictimGradient) {
  // The leaked fragments must be exactly Trans(victim_gradient): reassembling them with
  // the *party-held* transform recovers the true gradient (the adversary cannot do this —
  // it lacks the mapper and the permutation key).
  PipelineRun run = RunAndBreach(/*enable_shuffle=*/true);
  ASSERT_EQ(run.breached_fragments.size(), 2u);

  auto factory = [] {
    Rng rng(1234);
    return nn::BuildLeNet(1, 16, 10, rng);
  };
  auto model = factory();
  std::vector<float> victim_grad = attacks::VictimGradient(
      *model, run.party0_data.Example(0), run.party0_data.labels[0], 10);

  std::vector<std::vector<float>> fragments;
  for (const auto& f : run.breached_fragments) {
    fragments.push_back(f.values);
  }
  std::vector<float> recovered = run.job->transform().Invert(fragments, /*round=*/1);
  ASSERT_EQ(recovered.size(), victim_grad.size());
  float max_diff = 0.0f;
  for (size_t i = 0; i < recovered.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(recovered[i] - victim_grad[i]));
  }
  EXPECT_LT(max_diff, 1e-6f);
}

TEST(SecurityE2eTest, DlgOnBreachedShuffledFragmentFails) {
  // The adversary's best case: it breached aggregator 0, and we even grant it the model
  // mapper (position oracle). The fragment's values are still shuffled with the
  // party-held key, so DLG cannot reconstruct.
  PipelineRun run = RunAndBreach(/*enable_shuffle=*/true);

  auto factory = [] {
    Rng rng(1234);
    return nn::BuildLeNet(1, 16, 10, rng);
  };
  auto model = factory();

  // Build the observation from the *actual* breached material, granting the adversary
  // even the model mapper (position oracle): the fragment values remain permuted by the
  // party-held key, and that alone defeats the attack.
  attacks::Observation obs;
  const std::span<const uint32_t> breached = run.job->transform().mapper().PartitionIndices(0);
  obs.true_indices.assign(breached.begin(), breached.end());
  obs.attack_indices = obs.true_indices;
  obs.observed_values = run.breached_fragments[0].values;

  attacks::AttackConfig config;
  config.kind = attacks::AttackKind::kDlg;
  config.iterations = 40;
  attacks::AttackResult result = attacks::RunAttackOnObservation(
      *model, obs, run.party0_data.Example(0), run.party0_data.labels[0], 10, config);
  EXPECT_GT(result.mse, 1.0) << "breached shuffled fragment must not reconstruct";
}

TEST(SecurityE2eTest, HypervisorViewIsCiphertextEvenWithoutBreach) {
  PipelineRun run = RunAndBreach(/*enable_shuffle=*/true);
  const auto& cvm = run.job->aggregator_cvms()[0];
  auto ciphertext = cvm->HypervisorRead("update:party0:r1");
  ASSERT_TRUE(ciphertext.has_value());
  Bytes plaintext = fl::SerializeUpdate(run.breached_fragments[0]);
  EXPECT_NE(*ciphertext, plaintext);  // SEV memory encryption holds without a CPU exploit
}

}  // namespace
}  // namespace deta
