// Shared driver for the Figure 5-7 training comparisons: runs the same workload through
// the centralized FFL baseline (a one-aggregator DetaJob) and through DeTA, then prints
// the per-round loss/accuracy/latency series the paper plots.
#ifndef DETA_BENCH_FL_FIGURE_COMMON_H_
#define DETA_BENCH_FL_FIGURE_COMMON_H_

#include <sys/stat.h>

#include <cctype>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "core/deta_job.h"

namespace deta::bench {

struct FigureWorkload {
  std::string name;
  fl::ExecutionOptions config;
  int num_parties = 4;
  int num_aggregators = 3;
  std::function<data::Dataset()> make_train;
  std::function<data::Dataset()> make_eval;
  fl::ModelFactory model_factory;
  bool non_iid = false;
  int non_iid_dominant_classes = 2;
  float non_iid_dominant_fraction = 0.9f;
};

struct FigureSeries {
  fl::JobResult ffl;
  fl::JobResult deta;
};

inline std::vector<std::unique_ptr<fl::Party>> MakeWorkloadParties(
    const FigureWorkload& w) {
  data::Dataset train = w.make_train();
  Rng rng(9);
  auto shards = w.non_iid
                    ? data::SplitNonIidSkew(train, w.num_parties,
                                            w.non_iid_dominant_classes,
                                            w.non_iid_dominant_fraction, rng)
                    : data::SplitIid(train, w.num_parties, rng);
  std::vector<std::unique_ptr<fl::Party>> parties;
  for (int i = 0; i < w.num_parties; ++i) {
    parties.push_back(std::make_unique<fl::Party>(
        "party" + std::to_string(i), shards[static_cast<size_t>(i)], w.model_factory,
        w.config.train, static_cast<uint64_t>(100 + i)));
  }
  return parties;
}

inline FigureSeries RunComparison(const FigureWorkload& w) {
  FigureSeries series;
  {
    // Warmup: one discarded round absorbs first-touch costs (page faults, allocator
    // growth) so neither measured system pays them.
    fl::ExecutionOptions warm = w.config;
    warm.rounds = 1;
    warm.use_paillier = false;
    core::RunCentralizedBaseline(warm, MakeWorkloadParties(w), w.model_factory,
                                 w.make_eval());
  }
  series.ffl = core::RunCentralizedBaseline(w.config, MakeWorkloadParties(w),
                                            w.model_factory, w.make_eval());
  {
    core::DetaOptions deta_options;
    deta_options.num_aggregators = w.num_aggregators;
    core::DetaJob deta(w.config, deta_options, MakeWorkloadParties(w), w.model_factory,
                       w.make_eval());
    series.deta = deta.Run();
  }
  return series;
}

// Slugifies a display title into a filesystem-safe CSV stem.
inline std::string CsvName(const std::string& title) {
  std::string out;
  for (char c : title) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') {
    out.pop_back();
  }
  return out;
}

// Writes the series as CSV (for plotting) under ./bench_results/.
inline void WriteSeriesCsv(const std::string& name, const FigureSeries& s) {
  ::mkdir("bench_results", 0755);
  std::string path = "bench_results/" + name + ".csv";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "round,ffl_loss,ffl_acc,ffl_latency_s,deta_loss,deta_acc,deta_latency_s\n");
  for (size_t i = 0; i < s.ffl.rounds.size(); ++i) {
    const fl::RoundMetrics& a = s.ffl.rounds[i];
    const fl::RoundMetrics& b = s.deta.rounds[i];
    std::fprintf(f, "%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n", a.round, a.loss, a.accuracy,
                 a.cumulative_latency_s, b.loss, b.accuracy, b.cumulative_latency_s);
  }
  std::fclose(f);
  std::printf("(series written to %s)\n", path.c_str());
}

inline void PrintSeries(const std::string& title, const FigureSeries& s) {
  std::printf("\n--- %s ---\n", title.c_str());
  std::printf("%5s | %-10s %-10s %-12s | %-10s %-10s %-12s | %s\n", "round", "FFL-loss",
              "FFL-acc", "FFL-lat(s)", "DeTA-loss", "DeTA-acc", "DeTA-lat(s)", "overhead");
  for (size_t i = 0; i < s.ffl.rounds.size(); ++i) {
    const fl::RoundMetrics& a = s.ffl.rounds[i];
    const fl::RoundMetrics& b = s.deta.rounds[i];
    double overhead = a.cumulative_latency_s > 0
                          ? b.cumulative_latency_s / a.cumulative_latency_s - 1.0
                          : 0.0;
    std::printf("%5d | %-10.4f %-10.4f %-12.3f | %-10.4f %-10.4f %-12.3f | %+.2fx\n",
                a.round, a.loss, a.accuracy, a.cumulative_latency_s, b.loss, b.accuracy,
                b.cumulative_latency_s, overhead);
  }
  std::printf("one-time setup (attestation through ready barrier, wall): FFL %.3fs, "
              "DeTA %.3fs\n",
              s.ffl.setup_seconds, s.deta.setup_seconds);
  // Convergence parity summary.
  double max_loss_gap = 0.0;
  for (size_t i = 0; i < s.ffl.rounds.size(); ++i) {
    max_loss_gap =
        std::max(max_loss_gap, std::abs(s.ffl.rounds[i].loss - s.deta.rounds[i].loss));
  }
  std::printf("max |loss gap| across rounds: %.3g  (paper: curves coincide)\n",
              max_loss_gap);
}

}  // namespace deta::bench

#endif  // DETA_BENCH_FL_FIGURE_COMMON_H_
