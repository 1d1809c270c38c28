// deta_run — configurable command-line runner for DeTA training jobs.
//
//   $ ./deta_run --dataset=mnist --parties=4 --aggregators=3 --rounds=5
//   $ ./deta_run --algorithm=coordinate_median --shuffle=1 --compare-baseline=1
//
// Flags (all optional; an unknown flag exits 2 naming it):
//   --dataset=mnist|cifar10|rvlcdip      workload preset           (default mnist)
//   --parties=N                          number of parties         (default 4)
//   --aggregators=N                      number of DeTA aggregators (default 3)
//   --rounds=N                           training rounds           (default 5)
//   --local-epochs=N                     local epochs per round    (default 1)
//   --batch=N                            batch size                (default 32)
//   --lr=F                               learning rate             (default 0.08)
//   --algorithm=NAME                     iterative_averaging | coordinate_median | krum |
//                                        flame | trimmed_mean | multi_krum | bulyan
//   --fedsgd=0|1                         gradient uploads instead of parameters
//   --partition=0|1 --shuffle=0|1        DeTA transform stages     (default 1/1)
//   --paillier=0|1                       homomorphic aggregation   (default 0)
//   --ldp=0|1 --ldp-sigma=F --ldp-clip=F party-side DP (default off; sigma=0.05 clip=2)
//   --noniid=0|1                         90-10 two-class skew split
//   --train-examples=N --eval-examples=N dataset sizes
//   --compare-baseline=0|1               also run the centralized FFL baseline; exit 1
//                                        unless its final model is bit-identical
//   --seed=N                             reproducibility seed
//   --threads=N                          worker threads for aggregation/crypto hot paths
//                                        (0 = hardware concurrency; results are bitwise
//                                        identical for any value)
//   --checkpoint-dir=DIR                 durable per-role snapshots under DIR after every
//                                        round (src/persist/)
//   --resume=0|1                         resume from the newest job snapshot in
//                                        --checkpoint-dir instead of starting fresh
//   --telemetry-out=FILE                 write the run's telemetry snapshot as JSON
//   --verbose                            info-level logging
#include <cstdio>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/telemetry.h"
#include "core/cluster.h"
#include "core/deta_job.h"

using namespace deta;

namespace {

struct Workload {
  std::function<data::Dataset(int, uint64_t)> make;
  fl::ModelFactory model_factory;
  int classes;
};

Workload ResolveWorkload(const std::string& name, uint64_t seed) {
  if (name == "mnist") {
    return {[](int n, uint64_t s) { return data::SynthMnist(n, s); },
            [seed] {
              Rng rng(seed);
              return nn::BuildConvNet8(1, 28, 10, rng);
            },
            10};
  }
  if (name == "cifar10") {
    return {[](int n, uint64_t s) { return data::SynthCifar10(n, s); },
            [seed] {
              Rng rng(seed);
              return nn::BuildConvNet23(3, 32, 10, rng);
            },
            10};
  }
  if (name == "rvlcdip") {
    return {[](int n, uint64_t s) {
              data::SyntheticConfig c;
              c.num_examples = n;
              c.classes = 16;
              c.channels = 1;
              c.image_size = 32;
              c.style = data::ImageStyle::kDocument;
              c.seed = s;
              c.prototype_seed = 505;
              return data::GenerateSynthetic(c);
            },
            [seed] {
              Rng rng(seed);
              return nn::BuildMiniVgg(1, 32, 16, rng);
            },
            16};
  }
  std::fprintf(stderr, "unknown dataset: %s (mnist|cifar10|rvlcdip)\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, std::string> flags = core::ParseFlags(
      argc, argv,
      {"dataset", "parties", "aggregators", "rounds", "local-epochs", "batch", "lr",
       "algorithm", "fedsgd", "partition", "shuffle", "paillier", "ldp", "ldp-sigma",
       "ldp-clip", "noniid", "train-examples", "eval-examples", "compare-baseline",
       "seed", "threads", "checkpoint-dir", "resume", "telemetry-out", "verbose"});
  auto get_int = [&flags](const std::string& key, int fallback) {
    return core::FlagInt(flags, key, fallback);
  };
  auto get_double = [&flags](const std::string& key, double fallback) {
    return core::FlagDouble(flags, key, fallback);
  };
  SetLogLevel(get_int("verbose", 0) != 0 ? LogLevel::kInfo : LogLevel::kWarning);

  uint64_t seed = static_cast<uint64_t>(get_int("seed", 1234));
  Workload workload = ResolveWorkload(core::FlagOr(flags, "dataset", "mnist"), seed);
  int parties = get_int("parties", 4);
  int train_examples = get_int("train-examples", 200 * parties);
  int eval_examples = get_int("eval-examples", 150);

  fl::TrainConfig train;
  train.batch_size = get_int("batch", 32);
  train.local_epochs = get_int("local-epochs", 1);
  train.lr = static_cast<float>(get_double("lr", 0.08));
  if (get_int("fedsgd", 0) != 0) {
    train.kind = fl::TrainConfig::UpdateKind::kGradient;
  }
  train.ldp.enabled = get_int("ldp", 0) != 0;
  train.ldp.noise_multiplier = static_cast<float>(get_double("ldp-sigma", 0.05));
  train.ldp.clip_norm = static_cast<float>(get_double("ldp-clip", 2.0));

  fl::ExecutionOptions options;
  options.rounds = get_int("rounds", 5);
  options.train = train;
  options.algorithm = core::FlagOr(flags, "algorithm", "iterative_averaging");
  options.use_paillier = get_int("paillier", 0) != 0;
  options.seed = seed;
  options.threads = get_int("threads", 0);
  options.checkpoint.dir = core::FlagOr(flags, "checkpoint-dir", "");
  options.checkpoint.resume = get_int("resume", 0) != 0;
  core::DetaOptions deta_options;
  deta_options.num_aggregators = get_int("aggregators", 3);
  deta_options.enable_partition = get_int("partition", 1) != 0;
  deta_options.enable_shuffle = get_int("shuffle", 1) != 0;

  data::Dataset train_data = workload.make(train_examples, 7);
  data::Dataset eval_data = workload.make(eval_examples, 8);
  Rng split_rng(seed + 1);
  auto shards = get_int("noniid", 0) != 0
                    ? data::SplitNonIidSkew(train_data, parties, 2, 0.9f, split_rng)
                    : data::SplitIid(train_data, parties, split_rng);

  auto make_parties = [&] {
    std::vector<std::unique_ptr<fl::Party>> out;
    for (int i = 0; i < parties; ++i) {
      out.push_back(std::make_unique<fl::Party>("party" + std::to_string(i),
                                                shards[static_cast<size_t>(i)],
                                                workload.model_factory, train,
                                                seed + 100 + static_cast<uint64_t>(i)));
    }
    return out;
  };

  std::printf("DeTA run: %d parties, %d aggregators, %d rounds, algorithm=%s, "
              "partition=%d shuffle=%d paillier=%d ldp=%d threads=%d\n",
              parties, deta_options.num_aggregators, options.rounds,
              options.algorithm.c_str(), deta_options.enable_partition ? 1 : 0,
              deta_options.enable_shuffle ? 1 : 0, options.use_paillier ? 1 : 0,
              train.ldp.enabled ? 1 : 0, options.threads);
  if (train.ldp.enabled) {
    std::printf("LDP: sigma=%.3f clip=%.3f -> per-round epsilon=%.2f at delta=1e-5\n",
                train.ldp.noise_multiplier, train.ldp.clip_norm,
                fl::GaussianMechanismEpsilon(train.ldp.noise_multiplier, 1e-5));
  }

  core::DetaJob deta(options, deta_options, make_parties(), workload.model_factory,
                     eval_data);
  fl::JobResult result = deta.Run();
  if (!result.ok()) {
    std::fprintf(stderr, "run failed (%s): %s\n", fl::JobStatusName(result.status),
                 result.error.c_str());
    return 1;
  }
  if (result.resumed_from_round > 0) {
    std::printf("resumed from round %d\n", result.resumed_from_round);
  }
  std::printf("\n%5s %10s %10s %14s\n", "round", "loss", "accuracy", "latency(s)");
  for (const auto& m : result.rounds) {
    std::printf("%5d %10.4f %10.4f %14.3f\n", m.round, m.loss, m.accuracy,
                m.cumulative_latency_s);
  }
  std::printf("setup (attestation, handshakes, ready barrier; wall): %.3fs\n",
              result.setup_seconds);

  bool matches_baseline = true;
  if (get_int("compare-baseline", 0) != 0) {
    // The baseline persists nothing: its snapshots would land next to the DeTA run's,
    // and a later --resume would load them.
    fl::ExecutionOptions baseline_options = options;
    baseline_options.checkpoint = {};
    fl::JobResult baseline = core::RunCentralizedBaseline(
        baseline_options, make_parties(), workload.model_factory, eval_data);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline run failed (%s): %s\n",
                   fl::JobStatusName(baseline.status), baseline.error.c_str());
      return 1;
    }
    std::printf("\nbaseline FFL final: loss=%.4f acc=%.4f latency=%.3fs\n",
                baseline.rounds.back().loss, baseline.rounds.back().accuracy,
                baseline.rounds.back().cumulative_latency_s);
    float max_diff = 0.0f;
    const auto& a = baseline.final_params;
    const auto& b = result.final_params;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
    }
    matches_baseline = a == b;
    std::printf("max parameter difference DeTA vs FFL: %g%s\n", max_diff,
                matches_baseline ? " (bit-exact)" : " (MISMATCH)");
  }

  std::string telemetry_out = core::FlagOr(flags, "telemetry-out", "");
  if (!telemetry_out.empty()) {
    // The DeTA run's own delta (not process-global), so the baseline comparison above
    // cannot leak its counters into the artifact.
    if (!telemetry::WriteJsonFile(result.telemetry, telemetry_out)) {
      return 1;
    }
    std::printf("telemetry written to %s\n", telemetry_out.c_str());
  }
  return matches_baseline ? 0 : 1;
}
