// deta_run — configurable command-line runner for DeTA training jobs.
//
//   $ ./deta_run --dataset=mnist --parties=4 --aggregators=3 --rounds=5
//   $ ./deta_run --algorithm=coordinate_median --shuffle=1 --compare-baseline=1
//
// Flags (all optional):
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
//   --checkpoint-dir=DIR                 durable per-role snapshots under DIR (src/persist/)
//   --checkpoint-every=N                 snapshot cadence in rounds (default 1)
//   --resume=0|1                         resume from the newest job snapshot in
//                                        --checkpoint-dir instead of starting fresh
//   --telemetry-out=FILE                 write the run's telemetry snapshot as JSON
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/telemetry.h"
#include "core/deta_job.h"

using namespace deta;

namespace {

struct Flags {
  std::map<std::string, std::string> values;

  static Flags Parse(int argc, char** argv) {
    Flags flags;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
        std::exit(2);
      }
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.values[arg.substr(2)] = "1";
      } else {
        flags.values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
    return flags;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atoi(it->second.c_str());
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : std::atof(it->second.c_str());
  }
  bool GetBool(const std::string& key, bool fallback) const {
    return GetInt(key, fallback ? 1 : 0) != 0;
  }
};

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
  Flags flags = Flags::Parse(argc, argv);
  SetLogLevel(flags.GetBool("verbose", false) ? LogLevel::kInfo : LogLevel::kWarning);

  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));
  Workload workload = ResolveWorkload(flags.Get("dataset", "mnist"), seed);
  int parties = flags.GetInt("parties", 4);
  int train_examples = flags.GetInt("train-examples", 200 * parties);
  int eval_examples = flags.GetInt("eval-examples", 150);

  fl::TrainConfig train;
  train.batch_size = flags.GetInt("batch", 32);
  train.local_epochs = flags.GetInt("local-epochs", 1);
  train.lr = static_cast<float>(flags.GetDouble("lr", 0.08));
  if (flags.GetBool("fedsgd", false)) {
    train.kind = fl::TrainConfig::UpdateKind::kGradient;
  }
  train.ldp.enabled = flags.GetBool("ldp", false);
  train.ldp.noise_multiplier = static_cast<float>(flags.GetDouble("ldp-sigma", 0.05));
  train.ldp.clip_norm = static_cast<float>(flags.GetDouble("ldp-clip", 2.0));

  fl::ExecutionOptions options;
  options.rounds = flags.GetInt("rounds", 5);
  options.train = train;
  options.algorithm = flags.Get("algorithm", "iterative_averaging");
  options.use_paillier = flags.GetBool("paillier", false);
  options.seed = seed;
  options.threads = flags.GetInt("threads", 0);
  options.checkpoint.dir = flags.Get("checkpoint-dir", "");
  options.checkpoint.every_n_rounds = flags.GetInt("checkpoint-every", 1);
  options.checkpoint.resume = flags.GetBool("resume", false);
  core::DetaOptions deta_options;
  deta_options.num_aggregators = flags.GetInt("aggregators", 3);
  deta_options.enable_partition = flags.GetBool("partition", true);
  deta_options.enable_shuffle = flags.GetBool("shuffle", true);

  data::Dataset train_data = workload.make(train_examples, 7);
  data::Dataset eval_data = workload.make(eval_examples, 8);
  Rng split_rng(seed + 1);
  auto shards = flags.GetBool("noniid", false)
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
  if (flags.GetBool("compare-baseline", false)) {
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

  std::string telemetry_out = flags.Get("telemetry-out", "");
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
