// Figure 5: MNIST loss/accuracy/latency, DeTA vs FFL, for the three aggregation
// algorithms of §7.1: Iterative Averaging (a,d), Coordinate Median (b,e), and
// Paillier-based fusion (c,f). Paper: 4 parties, IID split, 8-layer ConvNet, 10 rounds
// (3 for Paillier), 3 local epochs. Reproduced with the synthetic MNIST stand-in at
// reduced per-party data; the Paillier panel uses a smaller MLP because homomorphic
// aggregation at ConvNet scale is the exact bottleneck the paper measured (~100x).
//
// Expected shapes: identical loss/accuracy curves; DeTA latency overhead tens of percent
// for the cheap algorithms; DeTA *faster* than FFL for Paillier (partition parallelism).
#include "fl_figure_common.h"

int main() {
  using namespace deta::bench;
  using deta::Rng;
  namespace data = deta::data;
  namespace fl = deta::fl;
  namespace nn = deta::nn;

  PrintHeader("Figure 5 — MNIST, three aggregation algorithms",
              "DeTA (EuroSys'24) Figure 5, §7.1");
  int scale = Scale();
  const int kTrain = 400 * scale;
  const int kEval = 120 * scale;

  FigureWorkload base;
  base.num_parties = 4;
  base.num_aggregators = 3;
  base.config.rounds = 10;
  base.config.train.batch_size = 32;
  base.config.train.local_epochs = 3;
  base.config.train.lr = 0.08f;
  base.make_train = [=] { return data::SynthMnist(kTrain, 7); };
  base.make_eval = [=] { return data::SynthMnist(kEval, 8); };
  base.model_factory = [] {
    Rng rng(1234);
    return nn::BuildConvNet8(1, 28, 10, rng);
  };

  {
    FigureWorkload w = base;
    w.config.algorithm = "iterative_averaging";
    {
    FigureSeries series = RunComparison(w);
    PrintSeries("Fig 5a/5d — Iterative Averaging", series);
    WriteSeriesCsv(CsvName("Fig 5a/5d — Iterative Averaging"), series);
  }
  }
  {
    FigureWorkload w = base;
    w.config.algorithm = "coordinate_median";
    {
    FigureSeries series = RunComparison(w);
    PrintSeries("Fig 5b/5e — Coordinate Median", series);
    WriteSeriesCsv(CsvName("Fig 5b/5e — Coordinate Median"), series);
  }
  }
  {
    // Paillier: 3 rounds as in the paper; smaller model so the homomorphic path is the
    // dominant cost (which is the phenomenon Figure 5f reports).
    FigureWorkload w = base;
    w.config.rounds = 3;
    w.config.use_paillier = true;
    w.config.paillier_modulus_bits = 256;
    w.config.train.local_epochs = 1;
    w.model_factory = [] {
      Rng rng(1234);
      return nn::BuildMlp(28 * 28, {16}, 10, rng);
    };
    // MLP consumes flattened rows: wrap datasets by reshaping images to [N, 784].
    w.make_train = [=] {
      data::Dataset d = data::SynthMnist(kTrain / 2, 7);
      return d;
    };
    w.make_eval = [=] { return data::SynthMnist(kEval / 2, 8); };
    std::printf(
        "\n(Paillier panel: MLP head on flattened images; AHE cost dominates as in the "
        "paper.)\n");
    {
    FigureSeries series = RunComparison(w);
    PrintSeries("Fig 5c/5f — Paillier fusion", series);
    WriteSeriesCsv(CsvName("Fig 5c/5f — Paillier fusion"), series);
  }
    std::printf(
        "Paper (Figure 5f): Paillier is ~100x slower than plain averaging, and DeTA is\n"
        "~4%% faster than FFL.\n");
  }
  return 0;
}
