// The central correctness property of DeTA (§3.1): coordinate-wise aggregation commutes
// with Trans/Trans^-1, bit-exactly, for every supported algorithm and configuration.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/transform.h"
#include "fl/aggregation.h"

namespace deta::core {
namespace {

std::shared_ptr<Transform> MakeTransform(int64_t total, int partitions, bool partition_on,
                                         bool shuffle_on) {
  auto mapper = std::make_shared<ModelMapper>(
      ModelMapper::Uniform(total, partitions, StringToBytes("transform-test")));
  auto shuffler =
      std::make_shared<Shuffler>(GeneratePermutationKey(128, StringToBytes("key")));
  TransformConfig config;
  config.enable_partition = partition_on;
  config.enable_shuffle = shuffle_on;
  return std::make_shared<Transform>(mapper, shuffler, config);
}

TEST(TransformTest, ApplyInvertRoundTrip) {
  Rng rng(1);
  std::vector<float> flat(501);
  for (auto& v : flat) {
    v = rng.NextGaussian();
  }
  for (bool partition : {true, false}) {
    for (bool shuffle : {true, false}) {
      SCOPED_TRACE(testing::Message() << "partition=" << partition << " shuffle=" << shuffle);
      auto transform = MakeTransform(501, 3, partition, shuffle);
      auto fragments = transform->Apply(flat, 7);
      EXPECT_EQ(static_cast<int>(fragments.size()), transform->num_partitions());
      EXPECT_EQ(transform->Invert(fragments, 7), flat);

      // The round object holds PermutationFor's tables and matches the one-shot calls.
      const RoundTransform round = transform->ForRound(7);
      Shuffler shuffler(GeneratePermutationKey(128, StringToBytes("key")));
      for (int p = 0; p < transform->num_partitions(); ++p) {
        std::span<const uint32_t> table = round.Table(p);
        if (!shuffle) {
          EXPECT_TRUE(table.empty());
          continue;
        }
        const int64_t size =
            partition ? transform->mapper().PartitionSize(p) : static_cast<int64_t>(flat.size());
        EXPECT_EQ(std::vector<uint32_t>(table.begin(), table.end()),
                  shuffler.PermutationFor(7, p, size));
      }
      auto round_fragments = round.Apply(flat);
      EXPECT_EQ(round_fragments, fragments);
      EXPECT_EQ(round.Invert(round_fragments), flat);
      EXPECT_EQ(round.Invert(fragments), transform->Invert(fragments, 7));
    }
  }
}

TEST(TransformTest, RoundIdMattersForInversion) {
  Rng rng(2);
  std::vector<float> flat(200);
  for (auto& v : flat) {
    v = rng.NextGaussian();
  }
  auto transform = MakeTransform(200, 2, true, true);
  auto fragments = transform->Apply(flat, /*round=*/1);
  // Inverting with the wrong round id yields garbage (different permutation).
  EXPECT_NE(transform->Invert(fragments, /*round=*/2), flat);
  EXPECT_EQ(transform->Invert(fragments, /*round=*/1), flat);
}

TEST(TransformTest, PartitionDisabledProducesSingleFragment) {
  auto transform = MakeTransform(100, 3, /*partition=*/false, /*shuffle=*/true);
  EXPECT_EQ(transform->num_partitions(), 1);
  std::vector<float> flat(100, 1.0f);
  auto fragments = transform->Apply(flat, 1);
  EXPECT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0].size(), 100u);
}

struct CommuteCase {
  const char* algorithm;
  bool shuffle;
};

class TransformCommuteTest : public ::testing::TestWithParam<CommuteCase> {};

// For each algorithm A and transform T: T^-1( A(T(u_1)), ..., per partition ) must equal
// A(u_1, ..., u_n) computed centrally — the paper's "no utility loss" claim.
TEST_P(TransformCommuteTest, AggregationCommutesBitExactly) {
  auto [algorithm_name, shuffle] = GetParam();
  const int64_t kTotal = 737;
  const int kParties = 5;
  const int kPartitions = 3;
  auto transform = MakeTransform(kTotal, kPartitions, true, shuffle);
  auto algorithm = fl::MakeAlgorithm(algorithm_name);

  Rng rng(33);
  std::vector<fl::ModelUpdate> updates(kParties);
  for (int p = 0; p < kParties; ++p) {
    updates[static_cast<size_t>(p)].values.resize(kTotal);
    for (auto& v : updates[static_cast<size_t>(p)].values) {
      v = rng.NextGaussian();
    }
    updates[static_cast<size_t>(p)].weight = 1.0 + p;
  }

  // Central result.
  std::vector<float> central = algorithm->Aggregate(updates);

  // DeTA path: every party transforms; each partition aggregates independently.
  const uint64_t kRound = 4;
  std::vector<std::vector<fl::ModelUpdate>> per_partition(kPartitions);
  for (const auto& update : updates) {
    auto fragments = transform->Apply(update.values, kRound);
    for (int j = 0; j < kPartitions; ++j) {
      fl::ModelUpdate fragment;
      fragment.values = fragments[static_cast<size_t>(j)];
      fragment.weight = update.weight;
      per_partition[static_cast<size_t>(j)].push_back(std::move(fragment));
    }
  }
  std::vector<std::vector<float>> aggregated(kPartitions);
  for (int j = 0; j < kPartitions; ++j) {
    aggregated[static_cast<size_t>(j)] =
        algorithm->Aggregate(per_partition[static_cast<size_t>(j)]);
  }
  std::vector<float> decentralized = transform->Invert(aggregated, kRound);

  // Krum may legitimately select different parties per partition (§4.2 discusses that the
  // clustering happens independently per partition); bit-exactness is only guaranteed for
  // coordinate-wise algorithms when every partition selects the same winner. With one far
  // outlier the honest cluster dominates in all partitions, so equality can still be
  // asserted coordinate-wise against the per-partition winners rather than the central
  // pick; here we assert the coordinate-wise algorithms exactly and Krum approximately.
  if (std::string(algorithm_name) == "krum") {
    // All updates here are i.i.d. Gaussian — check the result is one of the updates,
    // partition-wise; i.e. each coordinate comes from some party's value at that coord.
    ASSERT_EQ(decentralized.size(), central.size());
    for (size_t i = 0; i < decentralized.size(); ++i) {
      bool found = false;
      for (const auto& u : updates) {
        if (u.values[i] == decentralized[i]) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "coord " << i << " not from any party";
    }
  } else {
    EXPECT_EQ(decentralized, central);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, TransformCommuteTest,
    ::testing::Values(CommuteCase{"iterative_averaging", false},
                      CommuteCase{"iterative_averaging", true},
                      CommuteCase{"coordinate_median", false},
                      CommuteCase{"coordinate_median", true},
                      CommuteCase{"trimmed_mean", true}, CommuteCase{"krum", true}),
    [](const ::testing::TestParamInfo<CommuteCase>& info) {
      return std::string(info.param.algorithm) + (info.param.shuffle ? "_shuffled" : "_plain");
    });

// Security-relevant structural property: a fragment reveals neither positions nor
// original ordering. Verify the fragment is not simply a prefix/suffix/stride of the
// original and that shuffled fragments differ from unshuffled ones.
TEST(TransformTest, FragmentsAreObfuscated) {
  const int64_t kTotal = 400;
  std::vector<float> flat(kTotal);
  for (int64_t i = 0; i < kTotal; ++i) {
    flat[static_cast<size_t>(i)] = static_cast<float>(i);  // identifiable coordinates
  }
  auto plain = MakeTransform(kTotal, 2, true, false)->Apply(flat, 1);
  auto shuffled = MakeTransform(kTotal, 2, true, true)->Apply(flat, 1);
  // Same membership per partition, different order.
  for (int j = 0; j < 2; ++j) {
    std::multiset<float> a(plain[static_cast<size_t>(j)].begin(),
                           plain[static_cast<size_t>(j)].end());
    std::multiset<float> b(shuffled[static_cast<size_t>(j)].begin(),
                           shuffled[static_cast<size_t>(j)].end());
    EXPECT_EQ(a, b);
    EXPECT_NE(plain[static_cast<size_t>(j)], shuffled[static_cast<size_t>(j)]);
  }
  // The plain fragment is not a contiguous slice of the original.
  bool is_prefix = true;
  for (size_t i = 0; i < plain[0].size(); ++i) {
    if (plain[0][i] != flat[i]) {
      is_prefix = false;
      break;
    }
  }
  EXPECT_FALSE(is_prefix);
}

}  // namespace
}  // namespace deta::core
