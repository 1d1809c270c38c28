// Durable snapshot layer tests: codec integrity (any truncation or bit flip is
// rejected whole, float bits survive exactly), sealed-section confidentiality, and the
// StateStore's generation/retention/fallback behavior.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/telemetry.h"
#include "crypto/chacha20.h"
#include "net/codec.h"
#include "persist/codec.h"
#include "persist/state_store.h"

namespace deta::persist {
namespace {

std::string UniqueDir(const std::string& tag) {
  static int counter = 0;
  // ctest runs every test in its own process, so the counter restarts at zero each
  // time; the pid separates concurrent processes and the remove_all wipes any
  // leftovers a recycled pid might resurface.
  std::string dir = ::testing::TempDir() + "persist_" + tag + "_" +
                    std::to_string(::getpid()) + "_" + std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

Snapshot SampleSnapshot(int round) {
  Snapshot s;
  s.role = "unit-role";
  s.round = round;
  s.AddFloats(SectionType::kModelParams, "params",
              {1.0f, -2.5f, 3.25f, static_cast<float>(round)});
  s.Add(SectionType::kRaw, "note", StringToBytes("round-" + std::to_string(round)));
  return s;
}

TEST(PersistCodecTest, RoundTripPreservesEverySection) {
  Snapshot s = SampleSnapshot(7);
  s.generation = 42;
  // Exact float bit patterns survive, including -0.0 and a subnormal.
  const std::vector<float> bits = {1.5f, -2.25f, 0.0f, -0.0f, 3.14159f, 1e-40f};
  s.AddFloats(SectionType::kModelParams, "bits", bits);
  Bytes blob = SerializeSnapshot(s);
  std::optional<Snapshot> parsed = ParseSnapshot(blob);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->role, "unit-role");
  EXPECT_EQ(parsed->round, 7);
  EXPECT_EQ(parsed->generation, 42u);
  ASSERT_EQ(parsed->sections.size(), 3u);
  auto params = parsed->FindFloats("params");
  ASSERT_TRUE(params.has_value());
  EXPECT_EQ(*params, (std::vector<float>{1.0f, -2.5f, 3.25f, 7.0f}));
  auto back = parsed->FindFloats("bits");
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), bits.size());
  EXPECT_EQ(std::memcmp(back->data(), bits.data(), bits.size() * sizeof(float)), 0);
  const Section* note = parsed->Find("note");
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->type, SectionType::kRaw);
  EXPECT_EQ(note->data, StringToBytes("round-7"));
}

TEST(PersistCodecTest, TruncationAtEveryByteOffsetIsRejected) {
  Bytes blob = SerializeSnapshot(SampleSnapshot(3));
  for (size_t len = 0; len < blob.size(); ++len) {
    Bytes truncated(blob.begin(), blob.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(ParseSnapshot(truncated).has_value()) << "length " << len;
  }
  EXPECT_TRUE(ParseSnapshot(blob).has_value());
}

TEST(PersistCodecTest, EveryBitFlipIsRejected) {
  Bytes blob = SerializeSnapshot(SampleSnapshot(3));
  for (size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = blob;
      flipped[i] ^= static_cast<uint8_t>(1 << bit);
      EXPECT_FALSE(ParseSnapshot(flipped).has_value())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(PersistSealTest, SealedSectionsRoundTripAndRejectTampering) {
  crypto::SecureRng rng(StringToBytes("seal-test"));
  SealKey key = SealKey::Derive(99, "aggregator0");
  Bytes secret = StringToBytes("channel master secret");
  Bytes sealed = key.Seal(secret, rng);
  // Ciphertext never contains the plaintext.
  EXPECT_EQ(std::search(sealed.begin(), sealed.end(), secret.begin(), secret.end()),
            sealed.end());
  std::optional<Bytes> opened = key.Open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, secret);
  // Any bit flip fails authentication.
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes tampered = sealed;
    tampered[i] ^= 1;
    EXPECT_FALSE(key.Open(tampered).has_value()) << "byte " << i;
  }
  // A different role (or job seed) derives a different key.
  EXPECT_FALSE(SealKey::Derive(99, "aggregator1").Open(sealed).has_value());
  EXPECT_FALSE(SealKey::Derive(100, "aggregator0").Open(sealed).has_value());
}

TEST(StateStoreTest, WriteAssignsMonotonicGenerationsAndLoadReturnsNewest) {
  StateStore store({UniqueDir("gen"), 10});
  for (int round = 1; round <= 4; ++round) {
    Snapshot s = SampleSnapshot(round);
    ASSERT_TRUE(store.Write(s));
    EXPECT_EQ(s.generation, static_cast<uint64_t>(round));
  }
  std::optional<Snapshot> loaded = store.Load("unit-role");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->round, 4);
  // LoadAt pins the consistent cut.
  std::optional<Snapshot> at = store.LoadAt("unit-role", 2);
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->round, 2);
  EXPECT_FALSE(store.Load("other-role").has_value());
}

TEST(StateStoreTest, RetentionPrunesOldGenerations) {
  StateStore store({UniqueDir("keep"), 3});
  for (int round = 1; round <= 6; ++round) {
    Snapshot s = SampleSnapshot(round);
    ASSERT_TRUE(store.Write(s));
  }
  std::vector<uint64_t> gens = store.Generations("unit-role");
  EXPECT_EQ(gens, (std::vector<uint64_t>{4, 5, 6}));
  // Pruning one role never touches another's files.
  Snapshot other = SampleSnapshot(1);
  other.role = "other-role";
  ASSERT_TRUE(store.Write(other));
  EXPECT_EQ(store.Generations("unit-role").size(), 3u);
}

TEST(StateStoreTest, TruncatedNewestGenerationFallsBackAtEveryByteOffset) {
  std::string dir = UniqueDir("trunc");
  StateStore store({dir, 10});
  Snapshot g1 = SampleSnapshot(1);
  ASSERT_TRUE(store.Write(g1));
  Snapshot g2 = SampleSnapshot(2);
  ASSERT_TRUE(store.Write(g2));
  std::string path2 = store.PathFor("unit-role", g2.generation);
  std::optional<Bytes> full = ReadFile(path2);
  ASSERT_TRUE(full.has_value());

  uint64_t rejected_before = telemetry::Snapshot().counters["persist.snapshot.rejected"];
  for (size_t len = 0; len < full->size(); ++len) {
    Bytes truncated(full->begin(), full->begin() + static_cast<ptrdiff_t>(len));
    {
      std::FILE* f = std::fopen(path2.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      if (!truncated.empty()) {
        ASSERT_EQ(std::fwrite(truncated.data(), 1, truncated.size(), f),
                  truncated.size());
      }
      std::fclose(f);
    }
    std::optional<Snapshot> loaded = store.Load("unit-role");
    ASSERT_TRUE(loaded.has_value()) << "truncated at " << len;
    // The corrupt generation 2 is never trusted; recovery returns generation 1.
    EXPECT_EQ(loaded->round, 1) << "truncated at " << len;
  }
  EXPECT_GT(telemetry::Snapshot().counters["persist.snapshot.rejected"],
            rejected_before);

  // Restore the intact file: generation 2 becomes loadable again.
  ASSERT_TRUE(AtomicWriteFile(path2, *full));
  std::optional<Snapshot> healed = store.Load("unit-role");
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->round, 2);
}

TEST(StateStoreTest, NoVerifiableGenerationMeansNullopt) {
  std::string dir = UniqueDir("allbad");
  StateStore store({dir, 10});
  Snapshot s = SampleSnapshot(1);
  ASSERT_TRUE(store.Write(s));
  ASSERT_TRUE(AtomicWriteFile(store.PathFor("unit-role", s.generation),
                              StringToBytes("garbage, not a snapshot")));
  EXPECT_FALSE(store.Load("unit-role").has_value());
}

}  // namespace
}  // namespace deta::persist
