#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/queue.h"
#include "common/rng.h"
#include "common/secret.h"
#include "common/sim_clock.h"

namespace deta {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(ToHex(data), "0001abff7f");
  EXPECT_EQ(FromHex("0001abff7f"), data);
  EXPECT_EQ(FromHex("0001ABFF7F"), data);
}

TEST(BytesTest, HexRejectsMalformed) {
  EXPECT_THROW(FromHex("abc"), CheckFailure);   // odd length
  EXPECT_THROW(FromHex("zz"), CheckFailure);    // non-hex digit
}

TEST(BytesTest, StringConversion) {
  EXPECT_EQ(BytesToString(StringToBytes("hello")), "hello");
  EXPECT_TRUE(StringToBytes("").empty());
}

TEST(BytesTest, IntegerAppendRead) {
  Bytes buffer;
  AppendU32(buffer, 0xdeadbeef);
  AppendU64(buffer, 0x0123456789abcdefULL);
  EXPECT_EQ(ReadU32(buffer, 0), 0xdeadbeefu);
  EXPECT_EQ(ReadU64(buffer, 4), 0x0123456789abcdefULL);
}

TEST(BytesTest, ReadOutOfBoundsThrows) {
  Bytes buffer = {1, 2, 3};
  EXPECT_THROW(ReadU32(buffer, 0), CheckFailure);
  EXPECT_THROW(ReadU64(buffer, 0), CheckFailure);
}

TEST(BytesTest, ConstantTimeEqual) {
  EXPECT_TRUE(ConstantTimeEqual({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEqual({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(ConstantTimeEqual({}, {}));
}

TEST(CheckTest, MacrosThrowWithContext) {
  EXPECT_NO_THROW(DETA_CHECK(true));
  try {
    DETA_CHECK_MSG(false, "custom detail " << 42);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"), std::string::npos);
  }
  EXPECT_THROW(DETA_CHECK_EQ(1, 2), CheckFailure);
  EXPECT_THROW(DETA_CHECK_LT(2, 1), CheckFailure);
  EXPECT_NO_THROW(DETA_CHECK_LE(2, 2));
  EXPECT_NO_THROW(DETA_CHECK_GE(2, 2));
  EXPECT_THROW(DETA_CHECK_NE(3, 3), CheckFailure);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowRejectsZero) {
  Rng rng(7);
  EXPECT_THROW(rng.NextBelow(0), CheckFailure);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(5);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  EXPECT_NE(child1.NextU64(), child2.NextU64());
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) {
    v[static_cast<size_t>(i)] = i;
  }
  auto original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
}

TEST(QueueTest, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
  q.Push(42);
  EXPECT_EQ(q.TryPop(), 42);
}

TEST(QueueTest, CloseUnblocksWaiters) {
  BlockingQueue<int> q;
  std::atomic<bool> got_nullopt{false};
  std::thread waiter([&] {
    auto v = q.Pop();
    got_nullopt = !v.has_value();
  });
  q.Close();
  waiter.join();
  EXPECT_TRUE(got_nullopt);
}

TEST(QueueTest, PushAfterCloseDropped) {
  BlockingQueue<int> q;
  q.Close();
  q.Push(1);
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueTest, CrossThreadTransfer) {
  BlockingQueue<int> q;
  const int kCount = 1000;
  std::thread producer([&] {
    for (int i = 0; i < kCount; ++i) {
      q.Push(i);
    }
  });
  int sum = 0;
  for (int i = 0; i < kCount; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    sum += *v;
  }
  producer.join();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

TEST(SimClockTest, LatencyModelTransfer) {
  LatencyModel lm;
  lm.rtt_seconds = 0.01;
  lm.bandwidth_bytes_per_sec = 1000.0;
  EXPECT_DOUBLE_EQ(lm.TransferSeconds(0), 0.01);
  EXPECT_DOUBLE_EQ(lm.TransferSeconds(500), 0.01 + 0.5);
}

TEST(StopwatchTest, MeasuresThreadCpuTime) {
  Stopwatch watch;
  // Burn a little CPU.
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) {
    x = x * 1.0000001;
  }
  EXPECT_GT(watch.ElapsedSeconds(), 0.0);
}

// A wrapped value whose Wipe() is observable: it zeroes the payload, as a real wipe
// would, and counts the call, so a test can tell which Secret operation wiped which
// value.
struct WipeProbe {
  int value = 0;
  int* wipes = nullptr;
  void Wipe() {
    value = 0;
    ++*wipes;
  }
};

TEST(SecretTest, DestructorWipesTheValue) {
  int wipes = 0;
  { Secret<WipeProbe> key(WipeProbe{7, &wipes}); }
  EXPECT_EQ(wipes, 1);
}

TEST(SecretTest, CopyAssignmentWipesTheOldValue) {
  int old_wipes = 0;
  int source_wipes = 0;
  Secret<WipeProbe> target(WipeProbe{1, &old_wipes});
  const Secret<WipeProbe> source(WipeProbe{2, &source_wipes});
  target = source;
  EXPECT_EQ(old_wipes, 1);
  EXPECT_EQ(source_wipes, 0);  // a copy leaves its source intact
  EXPECT_EQ(target.ExposeForCrypto().value, 2);
  EXPECT_EQ(source.ExposeForCrypto().value, 2);
}

TEST(SecretTest, MoveAssignmentWipesTheOldValueAndTheSource) {
  int old_wipes = 0;
  int source_wipes = 0;
  Secret<WipeProbe> target(WipeProbe{1, &old_wipes});
  Secret<WipeProbe> source(WipeProbe{2, &source_wipes});
  target = std::move(source);
  EXPECT_EQ(old_wipes, 1);
  EXPECT_EQ(source_wipes, 1);
  EXPECT_EQ(target.ExposeForCrypto().value, 2);
  EXPECT_EQ(source.ExposeForCrypto().value, 0);
}

TEST(SecretTest, MoveConstructionWipesTheSource) {
  int wipes = 0;
  Secret<WipeProbe> source(WipeProbe{3, &wipes});
  Secret<WipeProbe> moved(std::move(source));
  EXPECT_EQ(wipes, 1);
  EXPECT_EQ(moved.ExposeForCrypto().value, 3);
  EXPECT_EQ(source.ExposeForCrypto().value, 0);
}

TEST(SecretTest, WipeNowEmptiesBytesAndZeroesArrays) {
  Secret<Bytes> bytes(Bytes{0x01, 0x02, 0x03});
  bytes.WipeNow();
  EXPECT_TRUE(bytes.ExposeForCrypto().empty());

  Secret<std::array<uint8_t, 4>> array(std::array<uint8_t, 4>{0x0a, 0x0b, 0x0c, 0x0d});
  array.WipeNow();
  EXPECT_EQ(array.ExposeForCrypto(), (std::array<uint8_t, 4>{}));
}

// Records whether a buffer held only zero bytes when its vector freed it.
bool freed_buffer_all_zero = false;

template <typename T>
struct ZeroCheckingAllocator {
  using value_type = T;
  ZeroCheckingAllocator() = default;
  template <typename U>
  ZeroCheckingAllocator(const ZeroCheckingAllocator<U>& /*other*/) {}
  T* allocate(size_t n) { return std::allocator<T>().allocate(n); }
  void deallocate(T* p, size_t n) {
    freed_buffer_all_zero = std::all_of(p, p + n, [](T b) { return b == 0; });
    std::allocator<T>().deallocate(p, n);
  }
  bool operator==(const ZeroCheckingAllocator& /*other*/) const { return true; }
};

// No key byte outlives its Secret in freed heap memory: the destructor wipes the
// vector's buffer before the vector hands it back to the allocator.
TEST(SecretTest, VectorBufferIsZeroedBeforeItIsFreed) {
  using CheckedBytes = std::vector<uint8_t, ZeroCheckingAllocator<uint8_t>>;
  freed_buffer_all_zero = false;
  { Secret<CheckedBytes> key(CheckedBytes{0x11, 0x22, 0x33, 0x44}); }
  EXPECT_TRUE(freed_buffer_all_zero);
}

}  // namespace
}  // namespace deta
