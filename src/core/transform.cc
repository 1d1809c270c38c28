#include "core/transform.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"

namespace deta::core {

RoundTransform::RoundTransform(const Transform& transform, uint64_t round_id)
    : transform_(&transform) {
  if (!transform.config_.enable_shuffle) {
    return;
  }
  tables_.resize(static_cast<size_t>(transform.num_partitions()));
  // Each table is one sequential Fisher-Yates; the partitions' tables derive in parallel.
  parallel::ParallelFor(
      0, static_cast<int64_t>(tables_.size()), 1, [&](int64_t lo, int64_t hi) {
        for (int64_t p = lo; p < hi; ++p) {
          const int partition = static_cast<int>(p);
          tables_[static_cast<size_t>(p)] = PermutationTable(transform.shuffler_->PermutationFor(
              round_id, partition, transform.FragmentSize(partition)));
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

// Partition and shuffle stay two passes: the partition's index walk is ascending, so it
// streams through the model, and the shuffle's random reads stay inside one fragment.
// Composing the two maps would make every read a random one across the whole model.
void RoundTransform::Apply(std::span<const float> flat,
                           std::span<const std::span<float>> fragments,
                           std::vector<float>& scratch) const {
  const Transform& transform = *transform_;
  DETA_CHECK_EQ(static_cast<int64_t>(flat.size()), transform.mapper_->total_params());
  DETA_CHECK_EQ(fragments.size(), static_cast<size_t>(transform.num_partitions()));
  const bool shuffle = !tables_.empty();
  for (size_t f = 0; f < fragments.size(); ++f) {
    std::span<float> out = fragments[f];
    const int partition = static_cast<int>(f);
    DETA_CHECK_EQ(static_cast<int64_t>(out.size()), transform.FragmentSize(partition));
    std::span<const float> partitioned = flat;
    if (transform.config_.enable_partition) {
      std::span<float> target = out;
      if (shuffle) {
        scratch.resize(std::max(scratch.size(), out.size()));
        target = std::span<float>(scratch).first(out.size());
      }
      GatherInto(flat, transform.mapper_->PartitionIndices(partition), target);
      partitioned = target;
    }
    if (shuffle) {
      GatherInto(partitioned, tables_[f].view(), out);
    } else if (!transform.config_.enable_partition) {
      std::copy(flat.begin(), flat.end(), out.begin());
    }
  }
}

void RoundTransform::Invert(std::span<const fl::FloatSpan> fragments, std::span<float> flat,
                            std::vector<float>& scratch) const {
  const Transform& transform = *transform_;
  DETA_CHECK_EQ(static_cast<int64_t>(flat.size()), transform.mapper_->total_params());
  DETA_CHECK_EQ(fragments.size(), static_cast<size_t>(transform.num_partitions()));
  const bool shuffle = !tables_.empty();
  for (size_t f = 0; f < fragments.size(); ++f) {
    const fl::FloatSpan& in = fragments[f];
    const int partition = static_cast<int>(f);
    DETA_CHECK_EQ(static_cast<int64_t>(in.size()), transform.FragmentSize(partition));
    fl::FloatSpan unshuffled = in;
    if (shuffle) {
      std::span<float> target = flat;
      if (transform.config_.enable_partition) {
        scratch.resize(std::max(scratch.size(), in.size()));
        target = std::span<float>(scratch).first(in.size());
      }
      ScatterInto(in, tables_[f].view(), target);
      unshuffled = std::span<const float>(target);
    }
    if (transform.config_.enable_partition) {
      ScatterInto(unshuffled, transform.mapper_->PartitionIndices(partition), flat);
    } else if (!shuffle) {
      in.CopyTo(flat.data());
    }
  }
}

std::vector<std::vector<float>> RoundTransform::Apply(const std::vector<float>& flat) const {
  std::vector<std::vector<float>> fragments(
      static_cast<size_t>(transform_->num_partitions()));
  std::vector<std::span<float>> out;
  for (size_t f = 0; f < fragments.size(); ++f) {
    fragments[f].resize(static_cast<size_t>(transform_->FragmentSize(static_cast<int>(f))));
    out.push_back(fragments[f]);
  }
  std::vector<float> scratch;
  Apply(flat, out, scratch);
  return fragments;
}

std::vector<float> RoundTransform::Invert(
    const std::vector<std::vector<float>>& fragments) const {
  std::vector<fl::FloatSpan> in(fragments.begin(), fragments.end());
  std::vector<float> flat(static_cast<size_t>(transform_->mapper().total_params()));
  std::vector<float> scratch;
  Invert(in, flat, scratch);
  return flat;
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

int64_t Transform::FragmentSize(int f) const {
  return config_.enable_partition ? mapper_->PartitionSize(f) : mapper_->total_params();
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
