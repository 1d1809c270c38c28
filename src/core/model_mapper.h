// Randomized model partitioning (paper §4.1): before training starts, a model mapper is
// generated — a random assignment of every parameter index to one of the deployed
// aggregators, honoring user-chosen proportions. The mapper is agreed upon and shared by
// all parties (it derives deterministically from a shared seed), never by aggregators.
//
// Each aggregator then sees only its own partition, squeezed into a dense vector: the
// fragment carries no model-architecture information because unassociated parameters are
// removed and the rest re-packed in sequence.
#ifndef DETA_CORE_MODEL_MAPPER_H_
#define DETA_CORE_MODEL_MAPPER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace deta::core {

class ModelMapper {
 public:
  // |total_params| parameters distributed over |proportions.size()| aggregators with the
  // given proportions (finite, non-negative, positive sum; they need not sum exactly to 1
  // and are normalized). The assignment is a seeded random permutation, so every
  // aggregator's partition is a uniform random subset of coordinates. Counted under
  // core.transform.layouts and timed by the span core.transform.layout.
  ModelMapper(int64_t total_params, const std::vector<double>& proportions,
              const Bytes& shared_seed);

  // Equal proportions convenience.
  static ModelMapper Uniform(int64_t total_params, int num_aggregators,
                             const Bytes& shared_seed);

  int num_partitions() const { return static_cast<int>(offsets_.size() - 1); }
  int64_t total_params() const { return static_cast<int64_t>(indices_.size()); }
  // Global coordinate indices owned by partition |p|, ascending: fragment order.
  std::span<const uint32_t> PartitionIndices(int p) const;
  int64_t PartitionSize(int p) const { return static_cast<int64_t>(PartitionIndices(p).size()); }

  // Splits a flat update into per-aggregator fragments.
  std::vector<std::vector<float>> Partition(const std::vector<float>& flat) const;
  // Reassembles fragments into the original coordinate order.
  std::vector<float> Merge(const std::vector<std::vector<float>>& fragments) const;

 private:
  // Every coordinate once, partition by partition: partition p owns
  // indices_[offsets_[p], offsets_[p + 1]).
  std::vector<uint32_t> indices_;
  std::vector<size_t> offsets_;
};

}  // namespace deta::core

#endif  // DETA_CORE_MODEL_MAPPER_H_
