#include "fl/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "net/codec.h"

namespace deta::fl {

void WriteUpdate(net::Writer& w, double weight, std::span<const float> values) {
  w.WriteDouble(weight);
  w.WriteFloatVector(values);
}

UpdateView ViewUpdate(std::span<const uint8_t> data) {
  net::Reader r(data);
  UpdateView view;
  view.weight = r.ReadDouble();
  std::span<const uint8_t> values = r.ReadFloatBytes();
  view.values = FloatSpan(values.data(), values.size() / sizeof(float));
  return view;
}

Bytes SerializeUpdate(const ModelUpdate& update) {
  net::Writer w;
  w.Reserve(UpdateWireSize(update.values.size()));
  WriteUpdate(w, update.weight, update.values);
  return w.Take();
}

ModelUpdate DeserializeUpdate(const Bytes& data) {
  UpdateView view = ViewUpdate(data);
  return ModelUpdate{view.values.ToVector(), view.weight};
}

std::vector<float> AggregationAlgorithm::Aggregate(
    const std::vector<ModelUpdate>& updates) const {
  std::vector<UpdateView> views;
  views.reserve(updates.size());
  for (const ModelUpdate& u : updates) {
    views.push_back(View(u));
  }
  return AggregateViews(views);
}

namespace {

// Chunk sizes for the deterministic parallel layer (common/parallel.h). Boundaries are
// fixed per (range, grain), so every result below is bitwise-identical for any thread
// count. Cheap per-coordinate work gets large chunks; per-coordinate sorts get smaller
// ones.
constexpr int64_t kCoordGrain = 1 << 13;
constexpr int64_t kSortGrain = 1 << 10;
constexpr int64_t kReduceGrain = 1 << 15;

void CheckUpdates(std::span<const UpdateView> updates) {
  DETA_CHECK_MSG(!updates.empty(), "aggregating zero updates");
  for (const auto& u : updates) {
    DETA_CHECK_EQ(u.values.size(), updates[0].values.size());
  }
}

double SquaredDistance(const FloatSpan& a, const FloatSpan& b) {
  return parallel::ParallelReduce(
      0, static_cast<int64_t>(a.size()), kReduceGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double s = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          double d = static_cast<double>(a[static_cast<size_t>(i)]) -
                     b[static_cast<size_t>(i)];
          s += d * d;
        }
        return s;
      },
      [](double x, double y) { return x + y; });
}

struct DotAndNorms {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
};

double CosineDist(const FloatSpan& a, const FloatSpan& b) {
  DotAndNorms r = parallel::ParallelReduce(
      0, static_cast<int64_t>(a.size()), kReduceGrain, DotAndNorms{},
      [&](int64_t lo, int64_t hi) {
        DotAndNorms p;
        for (int64_t i = lo; i < hi; ++i) {
          size_t k = static_cast<size_t>(i);
          p.dot += static_cast<double>(a[k]) * b[k];
          p.na += static_cast<double>(a[k]) * a[k];
          p.nb += static_cast<double>(b[k]) * b[k];
        }
        return p;
      },
      [](DotAndNorms x, DotAndNorms y) {
        x.dot += y.dot;
        x.na += y.na;
        x.nb += y.nb;
        return x;
      });
  if (r.na == 0.0 || r.nb == 0.0) {
    return 1.0;
  }
  return 1.0 - r.dot / (std::sqrt(r.na) * std::sqrt(r.nb));
}

double Norm(const FloatSpan& a) {
  double s = parallel::ParallelReduce(
      0, static_cast<int64_t>(a.size()), kReduceGrain, 0.0,
      [&](int64_t lo, int64_t hi) {
        double p = 0.0;
        for (int64_t i = lo; i < hi; ++i) {
          double v = a[static_cast<size_t>(i)];
          p += v * v;
        }
        return p;
      },
      [](double x, double y) { return x + y; });
  return std::sqrt(s);
}

double Median(std::vector<double> v) {
  DETA_CHECK(!v.empty());
  size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    double lower = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
    m = (m + lower) / 2.0;
  }
  return m;
}

}  // namespace

std::vector<float> IterativeAveraging::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  double total_weight = 0.0;
  for (const auto& u : updates) {
    total_weight += u.weight;
  }
  DETA_CHECK_GT(total_weight, 0.0);
  std::vector<float> weights(updates.size());
  for (size_t p = 0; p < updates.size(); ++p) {
    weights[p] = static_cast<float>(updates[p].weight / total_weight);
  }
  std::vector<float> out(updates[0].values.size(), 0.0f);
  // Coordinate-major: each coordinate accumulates over updates in index order, the same
  // per-coordinate addition sequence as the serial update-major loop — bitwise equal.
  parallel::ParallelFor(0, static_cast<int64_t>(out.size()), kCoordGrain,
                        [&](int64_t lo, int64_t hi) {
                          for (size_t p = 0; p < updates.size(); ++p) {
                            const float w = weights[p];
                            const FloatSpan& v = updates[p].values;
                            for (int64_t i = lo; i < hi; ++i) {
                              const size_t k = static_cast<size_t>(i);
                              out[k] += w * v[k];
                            }
                          }
                        });
  return out;
}

std::vector<float> CoordinateMedian::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  size_t n = updates[0].values.size();
  std::vector<float> out(n);
  parallel::ParallelFor(0, static_cast<int64_t>(n), kSortGrain, [&](int64_t lo, int64_t hi) {
    std::vector<float> column(updates.size());
    for (int64_t i = lo; i < hi; ++i) {
      for (size_t p = 0; p < updates.size(); ++p) {
        column[p] = updates[p].values[static_cast<size_t>(i)];
      }
      size_t mid = column.size() / 2;
      std::nth_element(column.begin(), column.begin() + static_cast<long>(mid), column.end());
      float m = column[mid];
      if (column.size() % 2 == 0) {
        float lower = *std::max_element(column.begin(), column.begin() + static_cast<long>(mid));
        m = (m + lower) / 2.0f;
      }
      out[static_cast<size_t>(i)] = m;
    }
  });
  return out;
}

namespace {

// Krum scores: sum of squared distances to each candidate's n - f - 2 nearest neighbours.
std::vector<double> KrumScores(std::span<const UpdateView> updates, int byzantine) {
  int n = static_cast<int>(updates.size());
  int neighbours = std::max(1, n - byzantine - 2);
  std::vector<std::vector<double>> dist(static_cast<size_t>(n),
                                        std::vector<double>(static_cast<size_t>(n), 0.0));
  // Each pair's distance is itself a deterministic parallel reduction over coordinates;
  // the pair loop stays serial (n is small, coordinates are not).
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      double d = SquaredDistance(updates[static_cast<size_t>(i)].values,
                                 updates[static_cast<size_t>(j)].values);
      dist[static_cast<size_t>(i)][static_cast<size_t>(j)] = d;
      dist[static_cast<size_t>(j)][static_cast<size_t>(i)] = d;
    }
  }
  std::vector<double> scores(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    std::vector<double> row;
    for (int j = 0; j < n; ++j) {
      if (j != i) {
        row.push_back(dist[static_cast<size_t>(i)][static_cast<size_t>(j)]);
      }
    }
    std::sort(row.begin(), row.end());
    double score = 0.0;
    for (int k = 0; k < neighbours && k < static_cast<int>(row.size()); ++k) {
      score += row[static_cast<size_t>(k)];
    }
    scores[static_cast<size_t>(i)] = score;
  }
  return scores;
}

}  // namespace

std::vector<float> Krum::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  std::vector<double> scores = KrumScores(updates, byzantine_);
  size_t best = static_cast<size_t>(
      std::min_element(scores.begin(), scores.end()) - scores.begin());
  return updates[best].values.ToVector();
}

std::vector<float> MultiKrum::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  int n = static_cast<int>(updates.size());
  int m = std::min(select_, n);
  DETA_CHECK_GT(m, 0);
  std::vector<double> scores = KrumScores(updates, byzantine_);
  std::vector<size_t> order(updates.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  std::vector<UpdateView> selected;
  for (int k = 0; k < m; ++k) {
    selected.push_back(updates[order[static_cast<size_t>(k)]]);
  }
  return IterativeAveraging().AggregateViews(selected);
}

std::vector<float> Bulyan::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  int n = static_cast<int>(updates.size());
  // Bulyan requires n >= 4f + 3 for its full guarantee; degrade gracefully below that by
  // clamping the selection size.
  int select = std::max(1, n - 2 * byzantine_);
  std::vector<double> scores = KrumScores(updates, byzantine_);
  std::vector<size_t> order(updates.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });

  size_t len = updates[0].values.size();
  std::vector<float> out(len);
  int beta = std::max(1, select - 2 * byzantine_);
  parallel::ParallelFor(0, static_cast<int64_t>(len), kSortGrain, [&](int64_t lo, int64_t hi) {
    std::vector<float> column(static_cast<size_t>(select));
    for (int64_t i = lo; i < hi; ++i) {
      for (int k = 0; k < select; ++k) {
        column[static_cast<size_t>(k)] =
            updates[order[static_cast<size_t>(k)]].values[static_cast<size_t>(i)];
      }
      // Average the beta values closest to the coordinate-wise median.
      std::sort(column.begin(), column.end());
      float median = column[column.size() / 2];
      std::sort(column.begin(), column.end(), [median](float a, float b) {
        return std::abs(a - median) < std::abs(b - median);
      });
      double s = 0.0;
      for (int k = 0; k < beta; ++k) {
        s += column[static_cast<size_t>(k)];
      }
      out[static_cast<size_t>(i)] = static_cast<float>(s / beta);
    }
  });
  return out;
}

std::vector<float> Flame::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  size_t n = updates.size();
  if (n <= 2) {
    return IterativeAveraging().AggregateViews(updates);
  }
  // 1. Outlier filtering on mean pairwise cosine distance (cluster-free approximation of
  //    FLAME's HDBSCAN step; both rely only on permutation-invariant distances).
  std::vector<double> mean_dist(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j) {
        mean_dist[i] += CosineDist(updates[i].values, updates[j].values);
      }
    }
    mean_dist[i] /= static_cast<double>(n - 1);
  }
  double med = Median(mean_dist);
  std::vector<size_t> kept;
  for (size_t i = 0; i < n; ++i) {
    if (mean_dist[i] <= 2.0 * med + 1e-12) {
      kept.push_back(i);
    }
  }
  if (kept.empty()) {
    for (size_t i = 0; i < n; ++i) {
      kept.push_back(i);
    }
  }
  // 2. Norm clipping to the median norm of the survivors.
  std::vector<double> norms;
  norms.reserve(kept.size());
  for (size_t i : kept) {
    norms.push_back(Norm(updates[i].values));
  }
  double clip = Median(norms);
  // 3. Average the clipped survivors, coordinate-major (per-coordinate accumulation
  //    order over |kept| is unchanged from the serial version).
  std::vector<double> scales(kept.size());
  for (size_t k = 0; k < kept.size(); ++k) {
    double norm = norms[k];
    scales[k] = (norm > clip && norm > 0.0) ? clip / norm : 1.0;
  }
  std::vector<float> out(updates[0].values.size(), 0.0f);
  parallel::ParallelFor(
      0, static_cast<int64_t>(out.size()), kCoordGrain, [&](int64_t lo, int64_t hi) {
        for (size_t k = 0; k < kept.size(); ++k) {
          const double scale = scales[k];
          const FloatSpan& v = updates[kept[k]].values;
          for (int64_t i = lo; i < hi; ++i) {
            const size_t c = static_cast<size_t>(i);
            out[c] += static_cast<float>(v[c] * scale);
          }
        }
      });
  float inv = 1.0f / static_cast<float>(kept.size());
  for (auto& v : out) {
    v *= inv;
  }
  return out;
}

std::vector<float> TrimmedMean::AggregateViews(std::span<const UpdateView> updates) const {
  CheckUpdates(updates);
  int n = static_cast<int>(updates.size());
  DETA_CHECK_MSG(2 * trim_ < n, "trim " << trim_ << " too large for " << n << " updates");
  size_t len = updates[0].values.size();
  std::vector<float> out(len);
  parallel::ParallelFor(0, static_cast<int64_t>(len), kSortGrain, [&](int64_t lo, int64_t hi) {
    std::vector<float> column(static_cast<size_t>(n));
    for (int64_t i = lo; i < hi; ++i) {
      for (int p = 0; p < n; ++p) {
        column[static_cast<size_t>(p)] =
            updates[static_cast<size_t>(p)].values[static_cast<size_t>(i)];
      }
      std::sort(column.begin(), column.end());
      double s = 0.0;
      for (int p = trim_; p < n - trim_; ++p) {
        s += column[static_cast<size_t>(p)];
      }
      out[static_cast<size_t>(i)] = static_cast<float>(s / (n - 2 * trim_));
    }
  });
  return out;
}

namespace {

// Telemetry decorator wrapped around every factory-made algorithm: per-call counters
// plus a `span.fl.aggregation.<name>.wall_s` latency histogram. Delegation is a plain
// virtual call, so the numeric results are untouched.
class InstrumentedAlgorithm : public AggregationAlgorithm {
 public:
  explicit InstrumentedAlgorithm(std::unique_ptr<AggregationAlgorithm> inner)
      : inner_(std::move(inner)) {
    span_name_ = "fl.aggregation.";
    span_name_.append(inner_->Name());
  }

  std::vector<float> AggregateViews(std::span<const UpdateView> updates) const override {
    telemetry::Span span(span_name_);
    DETA_COUNTER("fl.aggregation.calls").Increment();
    DETA_COUNTER("fl.aggregation.updates_in").Add(updates.size());
    if (!updates.empty()) {
      DETA_HISTOGRAM("fl.aggregation.vector_len", ::deta::telemetry::Unit::kCount)
          .Record(static_cast<double>(updates[0].values.size()));
    }
    return inner_->AggregateViews(updates);
  }

  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<AggregationAlgorithm> inner_;
  std::string span_name_;
};

}  // namespace

std::unique_ptr<AggregationAlgorithm> MakeAlgorithm(const std::string& name) {
  std::unique_ptr<AggregationAlgorithm> algo;
  if (name == "iterative_averaging") {
    algo = std::make_unique<IterativeAveraging>();
  } else if (name == "coordinate_median") {
    algo = std::make_unique<CoordinateMedian>();
  } else if (name == "krum") {
    algo = std::make_unique<Krum>(1);
  } else if (name == "flame") {
    algo = std::make_unique<Flame>();
  } else if (name == "trimmed_mean") {
    algo = std::make_unique<TrimmedMean>(1);
  } else if (name == "multi_krum") {
    algo = std::make_unique<MultiKrum>(1, 3);
  } else if (name == "bulyan") {
    algo = std::make_unique<Bulyan>(1);
  } else {
    DETA_CHECK_MSG(false, "unknown aggregation algorithm: " << name);
  }
  return std::make_unique<InstrumentedAlgorithm>(std::move(algo));
}

}  // namespace deta::fl
