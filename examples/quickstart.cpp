// Quickstart: train a model with DeTA — four parties, three SEV-protected aggregators,
// partitioned + shuffled updates — and compare against the centralized baseline.
//
//   $ ./quickstart
//
// Walks the full Figure-1 life cycle: attestation, token provisioning, two-phase party
// authentication, then federated rounds with Trans/Trans^-1 around every update.
#include <cstdio>

#include "common/logging.h"
#include "core/deta_job.h"

using namespace deta;

int main() {
  SetLogLevel(LogLevel::kInfo);  // narrate attestation + round progress

  // 1. A shared model architecture. Every party (and the evaluation harness) builds the
  //    same seeded network, so initial weights agree everywhere.
  fl::ModelFactory model_factory = [] {
    Rng rng(1234);
    return nn::BuildConvNet8(/*in_channels=*/1, /*image_size=*/28, /*classes=*/10, rng);
  };

  // 2. Private data: four parties, IID shards of a synthetic MNIST-like problem.
  data::Dataset train = data::SynthMnist(/*num_examples=*/800, /*seed=*/7);
  data::Dataset eval = data::SynthMnist(/*num_examples=*/200, /*seed=*/8);
  Rng split_rng(5);
  auto shards = data::SplitIid(train, /*parties=*/4, split_rng);

  fl::TrainConfig train_config;
  train_config.batch_size = 32;
  train_config.local_epochs = 1;
  train_config.lr = 0.08f;

  auto make_parties = [&] {
    std::vector<std::unique_ptr<fl::Party>> parties;
    for (int i = 0; i < 4; ++i) {
      parties.push_back(std::make_unique<fl::Party>(
          "party" + std::to_string(i), shards[static_cast<size_t>(i)], model_factory,
          train_config, static_cast<uint64_t>(100 + i)));
    }
    return parties;
  };

  // 3. DeTA job: three decentralized aggregators, partitioning + shuffling on. The same
  //    fl::ExecutionOptions drives both the DeTA job and the centralized baseline.
  fl::ExecutionOptions options;
  options.rounds = 5;
  options.train = train_config;
  options.algorithm = "iterative_averaging";
  core::DetaOptions deta_options;
  deta_options.num_aggregators = 3;
  deta_options.enable_partition = true;
  deta_options.enable_shuffle = true;
  deta_options.permutation_key_bits = 128;

  std::printf("== DeTA: 4 parties, 3 SEV-protected aggregators ==\n");
  core::DetaJob deta(options, deta_options, make_parties(), model_factory, eval);
  fl::JobResult deta_result = deta.Run();
  std::printf("one-time setup (attestation, handshakes, ready barrier; wall): %.3fs\n",
              deta_result.setup_seconds);

  // 4. The centralized baseline on the identical workload: the same engine with one
  //    aggregator that sees every party's full update.
  std::printf("\n== Baseline: centralized FFL aggregator ==\n");
  fl::JobResult ffl_result =
      core::RunCentralizedBaseline(options, make_parties(), model_factory, eval);

  // 5. Verdict: same model, small overhead.
  std::printf("\n%5s  %22s  %22s\n", "round", "DeTA (loss/acc/lat)", "FFL (loss/acc/lat)");
  for (size_t i = 0; i < deta_result.rounds.size(); ++i) {
    const fl::RoundMetrics& d = deta_result.rounds[i];
    const fl::RoundMetrics& f = ffl_result.rounds[i];
    std::printf("%5d  %7.4f %6.3f %6.2fs  %7.4f %6.3f %6.2fs\n", d.round, d.loss,
                d.accuracy, d.cumulative_latency_s, f.loss, f.accuracy,
                f.cumulative_latency_s);
  }
  bool identical = deta_result.final_params == ffl_result.final_params;
  std::printf("\nfinal model parameters identical to the centralized baseline: %s\n",
              identical ? "YES (bit-exact)" : "no");
  return identical ? 0 : 1;
}
