// The party-side Trans / Trans^-1 pipeline from Figure 1: partition by the shared model
// mapper, then shuffle each fragment with the round-keyed permutation. Both stages are
// index bijections, so coordinate-wise aggregation commutes with the transform — the
// formal basis for DeTA's "no utility loss" claim, asserted bit-exactly in the tests.
#ifndef DETA_CORE_TRANSFORM_H_
#define DETA_CORE_TRANSFORM_H_

#include <memory>
#include <span>

#include "core/model_mapper.h"
#include "core/shuffler.h"
#include "fl/update.h"

namespace deta::core {

struct TransformConfig {
  bool enable_partition = true;
  bool enable_shuffle = true;
};

class Transform;

// One round of Trans and Trans^-1. Constructing it derives the round's shuffle table for
// every partition, once; a party holds it from upload to download, so Trans^-1 reuses the
// tables Trans drew. Move-only, and it must not outlive the Transform that made it. The
// tables wipe themselves when it dies.
class RoundTransform {
 public:
  RoundTransform(RoundTransform&&) noexcept = default;
  RoundTransform& operator=(RoundTransform&&) noexcept = default;

  // Trans(LU[P]) for this round, into caller buffers: fragment f, FragmentSize(f)
  // floats, goes to aggregator f. |scratch| is working space the shuffle reuses (any
  // size on entry), so a caller that keeps it across rounds allocates nothing here.
  void Apply(std::span<const float> flat, std::span<const std::span<float>> fragments,
             std::vector<float>& scratch) const;
  // Trans^-1(AU[A_j]) from views of the aggregated fragments (a party's view the opened
  // result messages), into |flat| (total_params floats, each written once); |scratch| as
  // for Apply.
  void Invert(std::span<const fl::FloatSpan> fragments, std::span<float> flat,
              std::vector<float>& scratch) const;
  // The copying forms: fragments and the merged vector in buffers of their own.
  std::vector<std::vector<float>> Apply(const std::vector<float>& flat) const;
  std::vector<float> Invert(const std::vector<std::vector<float>>& fragments) const;

  // Partition |p|'s shuffle table, Shuffler::PermutationFor(round, p, size); empty when
  // shuffling is off.
  std::span<const uint32_t> Table(int p) const;

 private:
  friend class Transform;
  RoundTransform(const Transform& transform, uint64_t round_id);

  const Transform* transform_;
  std::vector<PermutationTable> tables_;  // one per partition; empty when shuffle is off
};

class Transform {
 public:
  // |mapper| and |shuffler| are shared across all parties of a training job.
  Transform(std::shared_ptr<const ModelMapper> mapper, std::shared_ptr<const Shuffler> shuffler,
            TransformConfig config);

  int num_partitions() const;
  // Floats in fragment |f|: its partition's size, or the whole model unpartitioned.
  int64_t FragmentSize(int f) const;

  // Derives round |round_id|'s tables (one per partition, in parallel across partitions).
  RoundTransform ForRound(uint64_t round_id) const;

  // One-shot forms of ForRound(round_id).Apply / .Invert: each call derives the tables.
  std::vector<std::vector<float>> Apply(const std::vector<float>& flat,
                                        uint64_t round_id) const;
  std::vector<float> Invert(const std::vector<std::vector<float>>& fragments,
                            uint64_t round_id) const;

  const ModelMapper& mapper() const { return *mapper_; }
  const TransformConfig& config() const { return config_; }

 private:
  friend class RoundTransform;

  std::shared_ptr<const ModelMapper> mapper_;
  std::shared_ptr<const Shuffler> shuffler_;
  TransformConfig config_;
};

}  // namespace deta::core

#endif  // DETA_CORE_TRANSFORM_H_
