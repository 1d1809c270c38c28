#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "common/check.h"
#include "common/rng.h"
#include "core/shuffler.h"

namespace deta::core {
namespace {

Bytes TestKey() { return GeneratePermutationKey(128, StringToBytes("entropy")); }

TEST(ShufflerTest, PermutationIsBijection) {
  Shuffler shuffler(TestKey());
  for (int64_t size : {1, 2, 17, 100, 1000}) {
    auto perm = shuffler.PermutationFor(3, 0, size);
    std::set<int64_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(static_cast<int64_t>(seen.size()), size);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), size - 1);
  }
}

TEST(ShufflerTest, ShuffleUnshuffleRoundTrip) {
  Shuffler shuffler(TestKey());
  Rng rng(4);
  for (uint64_t round : {1ULL, 2ULL, 99ULL}) {
    for (int partition : {0, 1, 2}) {
      std::vector<float> fragment(257);
      for (auto& v : fragment) {
        v = rng.NextGaussian();
      }
      auto shuffled = shuffler.Shuffle(fragment, round, partition);
      EXPECT_NE(shuffled, fragment);  // w.h.p. for 257 elements
      EXPECT_EQ(shuffler.Unshuffle(shuffled, round, partition), fragment);
    }
  }
}

TEST(ShufflerTest, PermutationChangesEveryRound) {
  // §4.2: "the permutation changes dynamically at each training round".
  Shuffler shuffler(TestKey());
  auto p1 = shuffler.PermutationFor(1, 0, 100);
  auto p2 = shuffler.PermutationFor(2, 0, 100);
  EXPECT_NE(p1, p2);
}

TEST(ShufflerTest, PermutationDiffersAcrossPartitions) {
  Shuffler shuffler(TestKey());
  EXPECT_NE(shuffler.PermutationFor(1, 0, 100), shuffler.PermutationFor(1, 1, 100));
}

TEST(ShufflerTest, DeterministicAcrossParties) {
  // All parties hold the same key and must derive the identical permutation.
  Bytes key = TestKey();
  Shuffler party_a(key), party_b(key);
  EXPECT_EQ(party_a.PermutationFor(5, 2, 333), party_b.PermutationFor(5, 2, 333));
}

TEST(ShufflerTest, DifferentKeysDifferentPermutations) {
  Shuffler a(GeneratePermutationKey(128, StringToBytes("e1")));
  Shuffler b(GeneratePermutationKey(128, StringToBytes("e2")));
  EXPECT_NE(a.PermutationFor(1, 0, 100), b.PermutationFor(1, 0, 100));
}

TEST(ShufflerTest, ShufflePreservesMultiset) {
  Shuffler shuffler(TestKey());
  std::vector<float> fragment = {5, 3, 3, 1, 9, 9, 9};
  auto shuffled = shuffler.Shuffle(fragment, 7, 0);
  std::multiset<float> a(fragment.begin(), fragment.end());
  std::multiset<float> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(ShufflerTest, KeyGeneration) {
  Bytes k1 = GeneratePermutationKey(128, StringToBytes("a"));
  EXPECT_EQ(k1.size(), 16u);
  Bytes k2 = GeneratePermutationKey(257, StringToBytes("a"));
  EXPECT_EQ(k2.size(), 33u);
  EXPECT_THROW(GeneratePermutationKey(4, StringToBytes("a")), CheckFailure);
  EXPECT_THROW(Shuffler(Bytes{}), CheckFailure);
}

// Aggregation commutes with shuffling: mean(shuffle(u_i)) == shuffle(mean(u_i)).
TEST(ShufflerTest, CoordinateWiseAggregationCommutes) {
  Shuffler shuffler(TestKey());
  Rng rng(8);
  const size_t n = 128;
  std::vector<std::vector<float>> updates(4, std::vector<float>(n));
  for (auto& u : updates) {
    for (auto& v : u) {
      v = rng.NextGaussian();
    }
  }
  // Mean of shuffled updates, then unshuffle.
  std::vector<float> mean_shuffled(n, 0.0f);
  for (const auto& u : updates) {
    auto s = shuffler.Shuffle(u, 3, 1);
    for (size_t i = 0; i < n; ++i) {
      mean_shuffled[i] += s[i] / 4.0f;
    }
  }
  auto recovered = shuffler.Unshuffle(mean_shuffled, 3, 1);
  // Plain mean.
  std::vector<float> mean_plain(n, 0.0f);
  for (const auto& u : updates) {
    for (size_t i = 0; i < n; ++i) {
      mean_plain[i] += u[i] / 4.0f;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(recovered[i], mean_plain[i]);
  }
}

// SeededPermutation draws its swap targets in batches; the table must be the one the
// one-draw-at-a-time Fisher-Yates gives from the same stream, at every batch tail, and a
// draw stopped at |stop| must fix positions [stop, n) as the one-draw loop stopped at the
// same step does.
TEST(ShufflerTest, BatchedDrawsMatchOneDrawAtATime) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{31}, size_t{32}, size_t{33},
                   size_t{34}, size_t{65}, size_t{1000}, size_t{4099}}) {
    for (size_t stop : {size_t{0}, size_t{1}, n / 3, n - 1, n}) {
      if (stop > n) {
        continue;  // n - 1 at n = 0
      }
      crypto::SecureRng rng(StringToBytes("batched-" + std::to_string(n)));
      crypto::SecureRng reference_rng(StringToBytes("batched-" + std::to_string(n)));
      std::vector<uint32_t> expected(n);
      std::iota(expected.begin(), expected.end(), 0u);
      for (size_t i = n; i > std::max<size_t>(stop, 1); --i) {
        std::swap(expected[i - 1], expected[reference_rng.NextBelow(i)]);
      }
      const std::vector<uint32_t> table = SeededPermutation(rng, n, stop);
      ASSERT_EQ(table.size(), n);
      EXPECT_TRUE(std::equal(table.begin() + static_cast<std::ptrdiff_t>(stop), table.end(),
                             expected.begin() + static_cast<std::ptrdiff_t>(stop)))
          << "n " << n << " stop " << stop;
      // The positions before |stop| hold the entries not yet drawn.
      std::vector<uint32_t> entries = table;
      std::ranges::sort(entries);
      std::ranges::sort(expected);
      EXPECT_EQ(entries, expected) << "n " << n << " stop " << stop;
      // Both streams end at the same point.
      EXPECT_EQ(rng.NextU64(), reference_rng.NextU64()) << "n " << n << " stop " << stop;
    }
  }
}

}  // namespace
}  // namespace deta::core
