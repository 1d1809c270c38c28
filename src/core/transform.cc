#include "core/transform.h"

#include "common/check.h"
#include "common/parallel.h"

namespace deta::core {

RoundTransform::RoundTransform(const Transform& transform, uint64_t round_id)
    : transform_(&transform) {
  if (!transform.config_.enable_shuffle) {
    return;
  }
  const ModelMapper& mapper = *transform.mapper_;
  tables_.resize(static_cast<size_t>(transform.num_partitions()));
  // Each table is one sequential Fisher-Yates; the partitions' tables derive in parallel.
  parallel::ParallelFor(
      0, static_cast<int64_t>(tables_.size()), 1, [&](int64_t lo, int64_t hi) {
        for (int64_t p = lo; p < hi; ++p) {
          const int partition = static_cast<int>(p);
          const int64_t size = transform.config_.enable_partition
                                   ? mapper.PartitionSize(partition)
                                   : mapper.total_params();
          tables_[static_cast<size_t>(p)] = PermutationTable(
              transform.shuffler_->PermutationFor(round_id, partition, size));
        }
      });
}

std::span<const uint32_t> RoundTransform::Table(int p) const {
  DETA_CHECK_GE(p, 0);
  DETA_CHECK_LT(p, transform_->num_partitions());
  if (tables_.empty()) {
    return {};
  }
  return tables_[static_cast<size_t>(p)].view();
}

std::vector<std::vector<float>> RoundTransform::Apply(const std::vector<float>& flat) const {
  const Transform& transform = *transform_;
  std::vector<std::vector<float>> fragments;
  if (transform.config_.enable_partition) {
    fragments = transform.mapper_->Partition(flat);
  } else {
    fragments.push_back(flat);
  }
  if (transform.config_.enable_shuffle) {
    // Partitions shuffle independently (each slot is replaced wholesale). When this outer
    // loop wins the pool, the nested per-element ParallelFor inside GatherBy degrades to
    // serial chunks — same results either way (common/parallel.h).
    parallel::ParallelFor(0, static_cast<int64_t>(fragments.size()), 1,
                          [&](int64_t lo, int64_t hi) {
                            for (int64_t p = lo; p < hi; ++p) {
                              const size_t i = static_cast<size_t>(p);
                              fragments[i] = GatherBy(fragments[i], tables_[i].view());
                            }
                          });
  }
  return fragments;
}

std::vector<float> RoundTransform::Invert(
    const std::vector<std::vector<float>>& fragments) const {
  const Transform& transform = *transform_;
  DETA_CHECK_EQ(fragments.size(), static_cast<size_t>(transform.num_partitions()));
  std::vector<std::vector<float>> unshuffled;
  if (transform.config_.enable_shuffle) {
    unshuffled.resize(fragments.size());
    parallel::ParallelFor(0, static_cast<int64_t>(fragments.size()), 1,
                          [&](int64_t lo, int64_t hi) {
                            for (int64_t p = lo; p < hi; ++p) {
                              const size_t i = static_cast<size_t>(p);
                              unshuffled[i] = ScatterBy(fragments[i], tables_[i].view());
                            }
                          });
  }
  const std::vector<std::vector<float>>& ordered =
      transform.config_.enable_shuffle ? unshuffled : fragments;
  if (transform.config_.enable_partition) {
    return transform.mapper_->Merge(ordered);
  }
  return ordered[0];
}

Transform::Transform(std::shared_ptr<const ModelMapper> mapper,
                     std::shared_ptr<const Shuffler> shuffler, TransformConfig config)
    : mapper_(std::move(mapper)), shuffler_(std::move(shuffler)), config_(config) {
  DETA_CHECK(mapper_ != nullptr);
  if (config_.enable_shuffle) {
    DETA_CHECK_MSG(shuffler_ != nullptr, "shuffle enabled but no shuffler provided");
  }
}

int Transform::num_partitions() const {
  return config_.enable_partition ? mapper_->num_partitions() : 1;
}

RoundTransform Transform::ForRound(uint64_t round_id) const {
  return RoundTransform(*this, round_id);
}

std::vector<std::vector<float>> Transform::Apply(const std::vector<float>& flat,
                                                 uint64_t round_id) const {
  return ForRound(round_id).Apply(flat);
}

std::vector<float> Transform::Invert(const std::vector<std::vector<float>>& fragments,
                                     uint64_t round_id) const {
  return ForRound(round_id).Invert(fragments);
}

}  // namespace deta::core
