#include <gtest/gtest.h>

#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "fl/aggregation.h"

namespace deta::fl {
namespace {

ModelUpdate MakeUpdate(std::vector<float> values, double weight = 1.0) {
  ModelUpdate u;
  u.values = std::move(values);
  u.weight = weight;
  return u;
}

TEST(UpdateTest, SerializationRoundTrip) {
  ModelUpdate u = MakeUpdate({1.5f, -2.0f, 0.0f}, 42.0);
  ModelUpdate back = DeserializeUpdate(SerializeUpdate(u));
  EXPECT_EQ(back.values, u.values);
  EXPECT_DOUBLE_EQ(back.weight, u.weight);
}

TEST(IterativeAveragingTest, UnweightedMean) {
  IterativeAveraging avg;
  auto out = avg.Aggregate({MakeUpdate({1, 2}), MakeUpdate({3, 4})});
  EXPECT_FLOAT_EQ(out[0], 2.0f);
  EXPECT_FLOAT_EQ(out[1], 3.0f);
}

TEST(IterativeAveragingTest, WeightedMean) {
  IterativeAveraging avg;
  // weights 3:1 -> (3*0 + 1*4)/4 = 1
  auto out = avg.Aggregate({MakeUpdate({0}, 3.0), MakeUpdate({4}, 1.0)});
  EXPECT_FLOAT_EQ(out[0], 1.0f);
}

TEST(IterativeAveragingTest, RejectsEmptyAndMismatched) {
  IterativeAveraging avg;
  EXPECT_THROW(avg.Aggregate({}), CheckFailure);
  EXPECT_THROW(avg.Aggregate({MakeUpdate({1}), MakeUpdate({1, 2})}), CheckFailure);
}

TEST(CoordinateMedianTest, OddAndEvenCounts) {
  CoordinateMedian median;
  auto odd = median.Aggregate({MakeUpdate({1, 10}), MakeUpdate({2, 20}), MakeUpdate({9, 0})});
  EXPECT_FLOAT_EQ(odd[0], 2.0f);
  EXPECT_FLOAT_EQ(odd[1], 10.0f);
  auto even = median.Aggregate({MakeUpdate({1}), MakeUpdate({3}), MakeUpdate({5}),
                                MakeUpdate({100})});
  EXPECT_FLOAT_EQ(even[0], 4.0f);
}

TEST(CoordinateMedianTest, RobustToOneOutlier) {
  CoordinateMedian median;
  auto out = median.Aggregate(
      {MakeUpdate({1.0f, 1.0f}), MakeUpdate({1.1f, 0.9f}), MakeUpdate({1e9f, -1e9f})});
  EXPECT_LT(std::abs(out[0] - 1.05f), 0.1f);
}

TEST(KrumTest, SelectsFromHonestCluster) {
  Krum krum(/*byzantine=*/1);
  // Three clustered honest updates + one far outlier; Krum must return a cluster member.
  std::vector<ModelUpdate> updates = {
      MakeUpdate({1.0f, 1.0f}), MakeUpdate({1.1f, 1.0f}), MakeUpdate({0.9f, 1.1f}),
      MakeUpdate({50.0f, -50.0f})};
  auto out = krum.Aggregate(updates);
  EXPECT_LT(std::abs(out[0] - 1.0f), 0.2f);
  EXPECT_LT(std::abs(out[1] - 1.0f), 0.2f);
}

TEST(KrumTest, ReturnsVerbatimUpdate) {
  Krum krum(0);
  auto out = krum.Aggregate({MakeUpdate({1, 2, 3}), MakeUpdate({1, 2, 4})});
  // Output must be exactly one of the inputs.
  EXPECT_TRUE((out == std::vector<float>{1, 2, 3}) || (out == std::vector<float>{1, 2, 4}));
}

TEST(FlameTest, FiltersPoisonedUpdate) {
  Flame flame;
  // Honest gradients point one way; the poisoned one is reversed and huge.
  std::vector<ModelUpdate> updates = {
      MakeUpdate({1.0f, 2.0f, 1.0f}), MakeUpdate({1.1f, 1.9f, 1.0f}),
      MakeUpdate({0.9f, 2.1f, 1.1f}), MakeUpdate({-40.0f, -80.0f, -40.0f})};
  auto out = flame.Aggregate(updates);
  // The result should stay near the honest cluster mean, not get dragged negative.
  EXPECT_GT(out[0], 0.3f);
  EXPECT_GT(out[1], 0.5f);
}

TEST(FlameTest, SmallCohortFallsBackToMean) {
  Flame flame;
  auto out = flame.Aggregate({MakeUpdate({2}), MakeUpdate({4})});
  EXPECT_FLOAT_EQ(out[0], 3.0f);
}

TEST(TrimmedMeanTest, DropsExtremes) {
  TrimmedMean trimmed(1);
  auto out = trimmed.Aggregate(
      {MakeUpdate({-100}), MakeUpdate({1}), MakeUpdate({2}), MakeUpdate({100})});
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_THROW(TrimmedMean(2).Aggregate({MakeUpdate({1}), MakeUpdate({2})}), CheckFailure);
}

TEST(MultiKrumTest, AveragesHonestCluster) {
  MultiKrum multi(1, 3);
  std::vector<ModelUpdate> updates = {
      MakeUpdate({1.0f}), MakeUpdate({1.2f}), MakeUpdate({0.8f}), MakeUpdate({100.0f})};
  auto out = multi.Aggregate(updates);
  EXPECT_NEAR(out[0], 1.0f, 0.01f);
}

TEST(MultiKrumTest, SelectOneEqualsKrum) {
  MultiKrum multi(1, 1);
  Krum krum(1);
  std::vector<ModelUpdate> updates = {MakeUpdate({1.0f, 2.0f}), MakeUpdate({1.1f, 2.1f}),
                                      MakeUpdate({0.9f, 1.9f}), MakeUpdate({-50.0f, 50.0f})};
  EXPECT_EQ(multi.Aggregate(updates), krum.Aggregate(updates));
}

TEST(BulyanTest, SurvivesCoordinateAndSelectionAttacks) {
  Bulyan bulyan(1);
  // One update is selection-plausible but has a single poisoned coordinate; plain
  // Multi-Krum averaging would absorb it, Bulyan's coordinate-wise trim rejects it.
  std::vector<ModelUpdate> updates = {
      MakeUpdate({1.0f, 1.0f, 1.0f}), MakeUpdate({1.1f, 0.9f, 1.0f}),
      MakeUpdate({0.9f, 1.1f, 1.0f}), MakeUpdate({1.0f, 1.0f, 1.05f}),
      MakeUpdate({1.0f, 1.0f, 500.0f}),  // hidden coordinate spike
      MakeUpdate({1.05f, 0.95f, 1.0f}), MakeUpdate({0.95f, 1.05f, 1.0f})};
  auto out = bulyan.Aggregate(updates);
  EXPECT_NEAR(out[0], 1.0f, 0.1f);
  EXPECT_NEAR(out[2], 1.0f, 0.2f) << "coordinate spike must be trimmed";
}

TEST(MakeAlgorithmTest, FactoryNames) {
  for (const char* name : {"iterative_averaging", "coordinate_median", "krum", "flame",
                           "trimmed_mean", "multi_krum", "bulyan"}) {
    auto algorithm = MakeAlgorithm(name);
    ASSERT_NE(algorithm, nullptr);
    EXPECT_EQ(algorithm->Name(), name);
  }
  EXPECT_THROW(MakeAlgorithm("nope"), CheckFailure);
}

// §4.2: shuffling must not change distance-based algorithms' outcomes. Apply the same
// permutation to all updates and verify Krum picks the same party and coordinate median /
// mean commute with the permutation.
TEST(ShuffleInvarianceTest, AlgorithmsCommuteWithPermutation) {
  Rng rng(77);
  const size_t n = 64;
  std::vector<ModelUpdate> updates;
  for (int p = 0; p < 5; ++p) {
    std::vector<float> v(n);
    for (auto& x : v) {
      x = rng.NextGaussian();
    }
    updates.push_back(MakeUpdate(std::move(v), 1.0 + p));
  }
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) {
    perm[i] = i;
  }
  rng.Shuffle(perm);
  auto permute = [&](const std::vector<float>& v) {
    std::vector<float> out(n);
    for (size_t i = 0; i < n; ++i) {
      out[i] = v[perm[i]];
    }
    return out;
  };
  std::vector<ModelUpdate> shuffled;
  for (const auto& u : updates) {
    shuffled.push_back(MakeUpdate(permute(u.values), u.weight));
  }

  for (const char* name : {"iterative_averaging", "coordinate_median", "krum", "flame",
                           "trimmed_mean", "multi_krum", "bulyan"}) {
    auto algorithm = MakeAlgorithm(name);
    auto direct = algorithm->Aggregate(updates);
    auto via_shuffle = algorithm->Aggregate(shuffled);
    auto expected = permute(direct);
    ASSERT_EQ(via_shuffle.size(), expected.size()) << name;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_FLOAT_EQ(via_shuffle[i], expected[i]) << name << " coord " << i;
    }
  }
}

// The parallel layer's core contract: chunk boundaries depend only on the range and
// grain, never the thread count, so every algorithm must produce bitwise-identical
// outputs for any ExecutionOptions::threads value.
TEST(ThreadInvarianceTest, AllAlgorithmsBitwiseIdenticalAcrossThreadCounts) {
  Rng rng(42);
  const size_t n = 50000;  // spans several chunks at the aggregation grain sizes
  std::vector<ModelUpdate> updates;
  for (int p = 0; p < 5; ++p) {
    std::vector<float> v(n);
    for (auto& x : v) {
      x = rng.NextGaussian();
    }
    updates.push_back(MakeUpdate(std::move(v), 1.0 + p));
  }

  for (const char* name : {"iterative_averaging", "coordinate_median", "krum", "flame",
                           "trimmed_mean", "multi_krum", "bulyan"}) {
    auto algorithm = MakeAlgorithm(name);
    std::vector<float> reference;
    for (int threads : {1, 2, 8}) {
      parallel::ScopedThreads scoped(threads);
      auto out = algorithm->Aggregate(updates);
      if (reference.empty()) {
        reference = std::move(out);
      } else {
        EXPECT_EQ(out, reference) << name << " diverges at threads=" << threads;
      }
    }
  }
}

// An aggregator reads each fragment through a view of the received wire form, where it
// lies. Every algorithm must give the same bits that way as over ModelUpdate copies.
TEST(UpdateViewTest, EveryAlgorithmMatchesOverViewsOfWireUpdates) {
  Rng rng(7);
  const size_t n = 20000;
  std::vector<ModelUpdate> updates;
  for (int p = 0; p < 7; ++p) {
    std::vector<float> v(n);
    for (auto& x : v) {
      x = rng.NextGaussian();
    }
    updates.push_back(MakeUpdate(std::move(v), 1.0 + 0.5 * p));
  }
  std::vector<Bytes> wire;
  for (const ModelUpdate& u : updates) {
    wire.push_back(SerializeUpdate(u));
  }
  std::vector<UpdateView> views;
  for (const Bytes& w : wire) {
    views.push_back(ViewUpdate(w));
  }
  for (const char* name : {"iterative_averaging", "coordinate_median", "krum", "flame",
                           "trimmed_mean", "multi_krum", "bulyan"}) {
    auto algorithm = MakeAlgorithm(name);
    std::vector<float> copies = algorithm->Aggregate(updates);
    std::vector<float> in_place = algorithm->AggregateViews(views);
    ASSERT_EQ(in_place.size(), copies.size()) << name;
    EXPECT_EQ(std::memcmp(in_place.data(), copies.data(), copies.size() * sizeof(float)), 0)
        << name;
  }
}

TEST(UpdateViewTest, MalformedWireFormThrows) {
  Bytes wire = SerializeUpdate(MakeUpdate({1.0f, 2.0f, 3.0f}, 2.0));
  UpdateView view = ViewUpdate(wire);
  EXPECT_EQ(view.weight, 2.0);
  EXPECT_EQ(view.values.ToVector(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  // The view reads the wire bytes where they lie: flipping the sign bit of the first
  // value's last byte flips the value it reads.
  wire[16 + 3] ^= 0x80;
  EXPECT_EQ(view.values[0], -1.0f);
  // At any offset, however aligned.
  Bytes shifted(1, 0);
  shifted.insert(shifted.end(), wire.begin(), wire.end());
  EXPECT_EQ(ViewUpdate(std::span<const uint8_t>(shifted).subspan(1)).values.ToVector(),
            (std::vector<float>{-1.0f, 2.0f, 3.0f}));
  wire.pop_back();  // the last value is cut short
  EXPECT_THROW(ViewUpdate(wire), CheckFailure);
  EXPECT_THROW(ViewUpdate(Bytes(8)), CheckFailure);
}

}  // namespace
}  // namespace deta::fl
