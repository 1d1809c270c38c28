#include "core/model_mapper.h"

#include <bit>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/telemetry.h"
#include "core/shuffler.h"

namespace deta::core {

namespace {

// Sorts |slice| ascending: marks each entry in |marks| (one bit per coordinate, all clear)
// and reads the marks back in order, clearing them for the next slice.
void SortByMarks(std::span<uint32_t> slice, std::vector<uint64_t>& marks) {
  for (uint32_t index : slice) {
    marks[index / 64] |= uint64_t{1} << (index % 64);
  }
  size_t k = 0;
  for (size_t word = 0; k < slice.size(); ++word) {
    for (uint64_t bits = marks[word]; bits != 0; bits &= bits - 1) {
      const auto bit = static_cast<size_t>(std::countr_zero(bits));
      slice[k++] = static_cast<uint32_t>(word * 64 + bit);
    }
    marks[word] = 0;
  }
}

}  // namespace

ModelMapper::ModelMapper(int64_t total_params, const std::vector<double>& proportions,
                         const Bytes& shared_seed) {
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
  telemetry::Span span("core.transform.layout");

  // Partition p's slice of the permutation takes its quota, rounded down; the last
  // partition absorbs the rounding remainder.
  const size_t n = static_cast<size_t>(total_params);
  offsets_.assign(1, 0);
  for (size_t p = 0; p + 1 < proportions.size(); ++p) {
    size_t count = n - offsets_.back();
    double quota = static_cast<double>(total_params) * proportions[p] / sum;
    if (quota < static_cast<double>(count)) {
      count = static_cast<size_t>(quota);
    }
    offsets_.push_back(offsets_.back() + count);
  }
  offsets_.push_back(n);

  // Cryptographically seeded permutation of all coordinate indices; contiguous slices of
  // the permutation become the partitions, so membership is uniform at random. The draw
  // fixes positions from the back, so it stops once every slice after the first is
  // drawn: the first slice is then the coordinates left over, and the rest of the
  // stream could only reorder them.
  Bytes seed = shared_seed;
  seed.insert(seed.end(), {'m', 'a', 'p', 'p', 'e', 'r'});
  crypto::SecureRng rng(seed);
  indices_ = SeededPermutation(rng, n, offsets_[1]);

  // §4.1: fragments are "squeezed to occupy all empty slots in sequence" — membership is
  // random but relative order is preserved, so each slice is sorted ascending in place.
  // (Any further reordering is the shuffler's job, keyed separately.)
  std::vector<uint64_t> marks((n + 63) / 64);
  for (size_t p = 0; p + 1 < offsets_.size(); ++p) {
    SortByMarks(std::span(indices_).subspan(offsets_[p], offsets_[p + 1] - offsets_[p]),
                marks);
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

std::span<const uint32_t> ModelMapper::PartitionIndices(int p) const {
  DETA_CHECK_GE(p, 0);
  DETA_CHECK_LT(p, num_partitions());
  const size_t begin = offsets_[static_cast<size_t>(p)];
  return std::span<const uint32_t>(indices_).subspan(
      begin, offsets_[static_cast<size_t>(p) + 1] - begin);
}

std::vector<std::vector<float>> ModelMapper::Partition(const std::vector<float>& flat) const {
  DETA_CHECK_EQ(flat.size(), indices_.size());
  std::vector<std::vector<float>> fragments(static_cast<size_t>(num_partitions()));
  for (int p = 0; p < num_partitions(); ++p) {
    const std::span<const uint32_t> indices = PartitionIndices(p);
    std::vector<float>& fragment = fragments[static_cast<size_t>(p)];
    fragment.resize(indices.size());
    GatherInto(flat, indices, fragment);
  }
  return fragments;
}

std::vector<float> ModelMapper::Merge(const std::vector<std::vector<float>>& fragments) const {
  DETA_CHECK_EQ(fragments.size(), static_cast<size_t>(num_partitions()));
  std::vector<float> flat(indices_.size());
  for (int p = 0; p < num_partitions(); ++p) {
    // Partition index sets are disjoint by construction, so every write lands once.
    ScatterInto(fragments[static_cast<size_t>(p)], PartitionIndices(p), flat);
  }
  return flat;
}

}  // namespace deta::core
