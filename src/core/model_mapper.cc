#include "core/model_mapper.h"

#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "common/telemetry.h"
#include "core/shuffler.h"

namespace deta::core {

ModelMapper::ModelMapper(int64_t total_params, const std::vector<double>& proportions,
                         const Bytes& shared_seed)
    : total_params_(total_params) {
  DETA_CHECK_GT(total_params, 0);
  DETA_CHECK(!proportions.empty());
  for (double share : proportions) {
    // A negative or infinite share would hand one aggregator every coordinate.
    DETA_CHECK_MSG(std::isfinite(share) && share >= 0.0,
                   "mapper proportion " << share << " is negative or not finite");
  }
  double sum = std::accumulate(proportions.begin(), proportions.end(), 0.0);
  DETA_CHECK_MSG(std::isfinite(sum) && sum > 0.0,
                 "mapper proportions sum to " << sum);
  DETA_COUNTER("core.transform.layouts").Increment();

  // Cryptographically seeded permutation of all coordinate indices; contiguous slices of
  // the permutation become the partitions, so membership is uniform at random. Each
  // coordinate is marked with the partition whose slice holds it.
  Bytes seed = shared_seed;
  seed.insert(seed.end(), {'m', 'a', 'p', 'p', 'e', 'r'});
  crypto::SecureRng rng(seed);
  const size_t n = static_cast<size_t>(total_params);
  std::vector<uint32_t> owner(n);
  std::vector<size_t> counts(proportions.size());
  {
    const std::vector<uint32_t> order = SeededPermutation(rng, n);
    size_t start = 0;
    for (size_t p = 0; p < proportions.size(); ++p) {
      size_t count = n - start;  // the last partition absorbs the rounding remainder
      if (p + 1 < proportions.size()) {
        double quota = static_cast<double>(total_params) * proportions[p] / sum;
        if (quota < static_cast<double>(count)) {
          count = static_cast<size_t>(quota);
        }
      }
      for (size_t k = start; k < start + count; ++k) {
        owner[order[k]] = static_cast<uint32_t>(p);
      }
      counts[p] = count;
      start += count;
    }
  }

  // §4.1: fragments are "squeezed to occupy all empty slots in sequence" — membership is
  // random but relative order is preserved, so one ascending walk over the coordinates
  // fills every partition in index order. (Any further reordering is the shuffler's job,
  // keyed separately.)
  partition_indices_.resize(proportions.size());
  for (size_t p = 0; p < proportions.size(); ++p) {
    partition_indices_[p].reserve(counts[p]);
  }
  for (size_t i = 0; i < n; ++i) {
    partition_indices_[owner[i]].push_back(static_cast<int64_t>(i));
  }
}

ModelMapper ModelMapper::Uniform(int64_t total_params, int num_aggregators,
                                 const Bytes& shared_seed) {
  DETA_CHECK_GT(num_aggregators, 0);
  return ModelMapper(total_params,
                     std::vector<double>(static_cast<size_t>(num_aggregators),
                                         1.0 / num_aggregators),
                     shared_seed);
}

const std::vector<int64_t>& ModelMapper::PartitionIndices(int p) const {
  DETA_CHECK_GE(p, 0);
  DETA_CHECK_LT(static_cast<size_t>(p), partition_indices_.size());
  return partition_indices_[static_cast<size_t>(p)];
}

std::vector<std::vector<float>> ModelMapper::Partition(const std::vector<float>& flat) const {
  DETA_CHECK_EQ(static_cast<int64_t>(flat.size()), total_params_);
  std::vector<std::vector<float>> fragments(partition_indices_.size());
  for (size_t p = 0; p < partition_indices_.size(); ++p) {
    fragments[p].resize(partition_indices_[p].size());
    GatherInto(flat, partition_indices_[p], fragments[p]);
  }
  return fragments;
}

std::vector<float> ModelMapper::Merge(const std::vector<std::vector<float>>& fragments) const {
  DETA_CHECK_EQ(fragments.size(), partition_indices_.size());
  std::vector<float> flat(static_cast<size_t>(total_params_));
  for (size_t p = 0; p < fragments.size(); ++p) {
    // Partition index sets are disjoint by construction, so every write lands once.
    ScatterInto(fragments[p], partition_indices_[p], flat);
  }
  return flat;
}

}  // namespace deta::core
