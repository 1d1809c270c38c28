#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "core/model_mapper.h"
#include "core/shuffler.h"
#include "crypto/chacha20.h"
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
  EXPECT_TRUE(std::ranges::equal(a.PartitionIndices(0), b.PartitionIndices(0)));
  EXPECT_FALSE(std::ranges::equal(a.PartitionIndices(0), c.PartitionIndices(0)));
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

// The layout by the full draw: the whole Fisher-Yates, every coordinate marked with the
// partition whose slice holds it, then one ascending walk that fills the partitions. The
// mapper, whose draw stops at the first slice, must give the same partitions.
std::vector<std::vector<uint32_t>> OracleLayout(int64_t total_params,
                                                const std::vector<double>& proportions,
                                                const Bytes& shared_seed) {
  Bytes seed = shared_seed;
  seed.insert(seed.end(), {'m', 'a', 'p', 'p', 'e', 'r'});
  crypto::SecureRng rng(seed);
  const size_t n = static_cast<size_t>(total_params);
  const std::vector<uint32_t> order = SeededPermutation(rng, n);
  const double sum = std::accumulate(proportions.begin(), proportions.end(), 0.0);
  std::vector<size_t> owner(n);
  size_t start = 0;
  for (size_t p = 0; p < proportions.size(); ++p) {
    size_t count = n - start;
    if (p + 1 < proportions.size()) {
      double quota = static_cast<double>(total_params) * proportions[p] / sum;
      if (quota < static_cast<double>(count)) {
        count = static_cast<size_t>(quota);
      }
    }
    for (size_t k = start; k < start + count; ++k) {
      owner[order[k]] = p;
    }
    start += count;
  }
  std::vector<std::vector<uint32_t>> partitions(proportions.size());
  for (size_t i = 0; i < n; ++i) {
    partitions[owner[i]].push_back(static_cast<uint32_t>(i));
  }
  return partitions;
}

// The shapes the known-answer digest lacks: an empty partition first, in the middle and
// last (the first one's empty slice lets the draw run to the end, the last one's full
// slice stops it before the first step), one partition, more partitions than
// parameters, sizes at the sort's 64-bit word edges, and many small partitions.
TEST(ModelMapperTest, LayoutMatchesTheFullDrawOracle) {
  struct Shape {
    int64_t total;
    std::vector<double> proportions;
  };
  const std::vector<Shape> shapes = {
      {1000, {0.0, 1.0}},
      {1000, {0.2, 0.0, 0.8}},
      {1000, {1.0, 0.0}},
      {1000, {1.0}},
      {3, std::vector<double>(5, 0.2)},
      {1, {0.5, 0.5}},
      {1, {1.0}},
      {63, {1.0, 1.0, 1.0}},
      {64, {1.0, 1.0, 1.0}},
      {65, {1.0, 1.0, 1.0}},
      {129, {0.5, 0.25, 0.25}},
      {1000, std::vector<double>(300, 1.0)},
      {100003, {0.5, 0.3, 0.2}},
  };
  const Bytes seed = StringToBytes("oracle-seed");
  for (const Shape& shape : shapes) {
    const ModelMapper mapper(shape.total, shape.proportions, seed);
    const auto expected = OracleLayout(shape.total, shape.proportions, seed);
    ASSERT_EQ(mapper.num_partitions(), static_cast<int>(expected.size()));
    for (int p = 0; p < mapper.num_partitions(); ++p) {
      EXPECT_TRUE(std::ranges::equal(mapper.PartitionIndices(p),
                                     expected[static_cast<size_t>(p)]))
          << "n " << shape.total << ", " << shape.proportions.size()
          << " partitions, partition " << p;
    }
  }
}

}  // namespace
}  // namespace deta::core
