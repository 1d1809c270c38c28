// Model-aggregation algorithms (paper §3.1, §7.1). All are coordinate-wise (or
// distance-based in a way that partitioning/shuffling preserves — §4.2 "Applicable
// Aggregation Algorithms"), so they run unmodified inside DeTA on partitioned, shuffled
// fragments. They read updates through UpdateViews (fl/update.h): a DeTA aggregator's
// views point into the fragments it received, and the ModelUpdate form views its
// arguments, so both read the same values in the same order and agree bit for bit.
#ifndef DETA_FL_AGGREGATION_H_
#define DETA_FL_AGGREGATION_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fl/update.h"

namespace deta::fl {

class AggregationAlgorithm {
 public:
  virtual ~AggregationAlgorithm() = default;
  // Fuses same-length updates into one vector.
  virtual std::vector<float> AggregateViews(std::span<const UpdateView> updates) const = 0;
  // The same over views of |updates|.
  std::vector<float> Aggregate(const std::vector<ModelUpdate>& updates) const;
  virtual std::string Name() const = 0;
};

// Weighted coordinate-wise mean — the core of FedAvg/FedSGD ("Iterative Averaging" in
// the paper's §7.1).
class IterativeAveraging : public AggregationAlgorithm {
 public:
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "iterative_averaging"; }
};

// Coordinate-wise median (Yin et al.) — Byzantine-tolerant.
class CoordinateMedian : public AggregationAlgorithm {
 public:
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "coordinate_median"; }
};

// Krum (Blanchard et al.): selects the update closest to its n-f-2 nearest neighbours.
// Distance-based, hence shuffle-invariant.
class Krum : public AggregationAlgorithm {
 public:
  // |byzantine| = assumed max number of malicious parties (f).
  explicit Krum(int byzantine) : byzantine_(byzantine) {}
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "krum"; }

 private:
  int byzantine_;
};

// FLAME-style robust aggregation (Nguyen et al., simplified): filter updates whose mean
// cosine distance to the others is an outlier, clip the survivors to the median norm,
// then average. Cosine distance and norms are permutation-invariant (§4.2).
class Flame : public AggregationAlgorithm {
 public:
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "flame"; }
};

// Trimmed mean: drop the k largest and smallest values per coordinate, average the rest.
// (An extra Byzantine-robust coordinate-wise algorithm beyond the paper's three.)
class TrimmedMean : public AggregationAlgorithm {
 public:
  explicit TrimmedMean(int trim) : trim_(trim) {}
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "trimmed_mean"; }

 private:
  int trim_;
};

// Multi-Krum: selects the m lowest-Krum-score updates and averages them (Blanchard et
// al.'s variant trading robustness for variance reduction). Distance-based, hence
// shuffle-invariant like Krum.
class MultiKrum : public AggregationAlgorithm {
 public:
  MultiKrum(int byzantine, int select) : byzantine_(byzantine), select_(select) {}
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "multi_krum"; }

 private:
  int byzantine_;
  int select_;
};

// Bulyan (El Mhamdi et al.): Multi-Krum selection followed by a per-coordinate trimmed
// mean around the median — combines selection- and coordinate-level robustness.
class Bulyan : public AggregationAlgorithm {
 public:
  explicit Bulyan(int byzantine) : byzantine_(byzantine) {}
  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override;
  std::string Name() const override { return "bulyan"; }

 private:
  int byzantine_;
};

std::unique_ptr<AggregationAlgorithm> MakeAlgorithm(const std::string& name);

}  // namespace deta::fl

#endif  // DETA_FL_AGGREGATION_H_
