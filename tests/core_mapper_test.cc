#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "core/model_mapper.h"
#include "crypto/sha256.h"

namespace deta::core {
namespace {

TEST(ModelMapperTest, UniformPartitionSizes) {
  ModelMapper mapper = ModelMapper::Uniform(100, 4, StringToBytes("seed"));
  EXPECT_EQ(mapper.num_partitions(), 4);
  int64_t total = 0;
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(mapper.PartitionSize(p), 25);
    total += mapper.PartitionSize(p);
  }
  EXPECT_EQ(total, 100);
}

TEST(ModelMapperTest, CustomProportions) {
  ModelMapper mapper(1000, {0.6, 0.2, 0.2}, StringToBytes("seed"));
  EXPECT_EQ(mapper.PartitionSize(0), 600);
  EXPECT_EQ(mapper.PartitionSize(1), 200);
  EXPECT_EQ(mapper.PartitionSize(2), 200);
}

TEST(ModelMapperTest, UnnormalizedProportionsNormalized) {
  ModelMapper mapper(100, {3.0, 1.0}, StringToBytes("seed"));
  EXPECT_EQ(mapper.PartitionSize(0), 75);
  EXPECT_EQ(mapper.PartitionSize(1), 25);
}

// Property: partitions are disjoint and cover every coordinate exactly once.
struct MapperParams {
  int64_t total;
  int parts;
};

class MapperPropertyTest : public ::testing::TestWithParam<MapperParams> {};

TEST_P(MapperPropertyTest, PartitionIsExactCover) {
  auto [total, parts] = GetParam();
  ModelMapper mapper = ModelMapper::Uniform(total, parts, StringToBytes("cover"));
  std::set<int64_t> seen;
  for (int p = 0; p < parts; ++p) {
    for (int64_t idx : mapper.PartitionIndices(p)) {
      EXPECT_GE(idx, 0);
      EXPECT_LT(idx, total);
      EXPECT_TRUE(seen.insert(idx).second) << "duplicate index " << idx;
    }
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), total);
}

TEST_P(MapperPropertyTest, PartitionMergeRoundTrip) {
  auto [total, parts] = GetParam();
  ModelMapper mapper = ModelMapper::Uniform(total, parts, StringToBytes("roundtrip"));
  Rng rng(static_cast<uint64_t>(total * 31 + parts));
  std::vector<float> flat(static_cast<size_t>(total));
  for (auto& v : flat) {
    v = rng.NextGaussian();
  }
  auto fragments = mapper.Partition(flat);
  EXPECT_EQ(static_cast<int>(fragments.size()), parts);
  EXPECT_EQ(mapper.Merge(fragments), flat);
}

INSTANTIATE_TEST_SUITE_P(Sizes, MapperPropertyTest,
                         ::testing::Values(MapperParams{1, 1}, MapperParams{7, 3},
                                           MapperParams{100, 2}, MapperParams{101, 3},
                                           MapperParams{1000, 7}, MapperParams{4096, 16}),
                         [](const ::testing::TestParamInfo<MapperParams>& info) {
                           return "n" + std::to_string(info.param.total) + "_p" +
                                  std::to_string(info.param.parts);
                         });

TEST(ModelMapperTest, SeedDeterminesAssignment) {
  ModelMapper a = ModelMapper::Uniform(500, 3, StringToBytes("same"));
  ModelMapper b = ModelMapper::Uniform(500, 3, StringToBytes("same"));
  ModelMapper c = ModelMapper::Uniform(500, 3, StringToBytes("different"));
  EXPECT_EQ(a.PartitionIndices(0), b.PartitionIndices(0));
  EXPECT_NE(a.PartitionIndices(0), c.PartitionIndices(0));
}

TEST(ModelMapperTest, AssignmentIsUnbiased) {
  // Each coordinate should land in each of 2 partitions about half the time across seeds.
  const int64_t kTotal = 64;
  std::vector<int> in_first(kTotal, 0);
  const int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    ModelMapper mapper =
        ModelMapper::Uniform(kTotal, 2, StringToBytes("bias" + std::to_string(t)));
    for (int64_t idx : mapper.PartitionIndices(0)) {
      in_first[static_cast<size_t>(idx)]++;
    }
  }
  for (int64_t i = 0; i < kTotal; ++i) {
    EXPECT_GT(in_first[static_cast<size_t>(i)], kTrials / 4) << i;
    EXPECT_LT(in_first[static_cast<size_t>(i)], 3 * kTrials / 4) << i;
  }
}

// A negative or non-finite share used to pass the sum check, convert a negative double
// to size_t and hand one aggregator every coordinate.
TEST(ModelMapperTest, RejectsNegativeOrNonFiniteProportions) {
  const Bytes seed = StringToBytes("x");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ModelMapper(1000, {-1.0, 2.0}, seed), CheckFailure);
  EXPECT_THROW(ModelMapper(1000, {inf, 1.0}, seed), CheckFailure);
  EXPECT_THROW(ModelMapper(1000, {std::nan(""), 1.0}, seed), CheckFailure);
  EXPECT_THROW(ModelMapper(1000, {1e308, 1e308}, seed), CheckFailure);  // sum overflows
  EXPECT_THROW(ModelMapper(1000, {0.0, 0.0}, seed), CheckFailure);
  ModelMapper empty_share(1000, {0.0, 1.0}, seed);
  EXPECT_EQ(empty_share.PartitionSize(0), 0);
  EXPECT_EQ(empty_share.PartitionSize(1), 1000);
}

TEST(ModelMapperTest, MergeRejectsWrongFragmentShapes) {
  ModelMapper mapper = ModelMapper::Uniform(10, 2, StringToBytes("x"));
  auto fragments = mapper.Partition(std::vector<float>(10, 1.0f));
  fragments[0].pop_back();
  EXPECT_THROW(mapper.Merge(fragments), CheckFailure);
  EXPECT_THROW(mapper.Partition(std::vector<float>(9)), CheckFailure);
}

TEST(ModelMapperTest, FragmentLeaksNoArchitectureInfo) {
  // A fragment is a dense vector whose length depends only on the proportion — two models
  // with the same parameter count produce indistinguishable fragment shapes.
  ModelMapper mapper = ModelMapper::Uniform(999, 3, StringToBytes("arch"));
  auto f1 = mapper.Partition(std::vector<float>(999, 1.0f));
  EXPECT_EQ(f1[0].size() + f1[1].size() + f1[2].size(), 999u);
  for (const auto& frag : f1) {
    EXPECT_GT(frag.size(), 300u);
    EXPECT_LT(frag.size(), 350u);
  }
}

// Pinned at the sort-based mapper: aggregation commutes with any layout, so golden.json
// cannot see a layout change and SeedDeterminesAssignment only checks repeatability.
// Every partition's indices, partitions in order, each as 8 little-endian bytes.
TEST(ModelMapperTest, KnownAnswerDigest) {
  crypto::Sha256 h;
  auto hash_layout = [&h](const ModelMapper& mapper) {
    for (int p = 0; p < mapper.num_partitions(); ++p) {
      Bytes le;
      for (int64_t index : mapper.PartitionIndices(p)) {
        AppendU64(le, static_cast<uint64_t>(index));
      }
      h.Update(le);
    }
  };
  const Bytes seed = StringToBytes("kat-mapper-seed");
  hash_layout(ModelMapper::Uniform(2035210, 3, seed));
  hash_layout(ModelMapper::Uniform(1666, 3, seed));
  hash_layout(ModelMapper::Uniform(1000, 5, seed));
  hash_layout(ModelMapper::Uniform(7, 2, seed));
  hash_layout(ModelMapper(100003, {0.5, 0.3, 0.2}, seed));
  auto digest = h.Finish();
  EXPECT_EQ(ToHex(Bytes(digest.begin(), digest.end())),
            "f320ad95456c232ca1a72163fcee053d3ef7165f2da6ef255b130a401bb7ed24");
}

}  // namespace
}  // namespace deta::core
