#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "common/check.h"
#include "core/key_broker.h"
#include "net/codec.h"
#include "net/message_bus.h"

namespace deta::core {
namespace {

TransformMaterial TestMaterial() {
  TransformMaterial m;
  m.permutation_key = Secret<Bytes>(GeneratePermutationKey(128, StringToBytes("kb-test")));
  m.mapper_seed = Secret<Bytes>(StringToBytes("mapper-seed-0123456789"));
  m.total_params = 1000;
  m.num_aggregators = 3;
  m.enable_partition = true;
  m.enable_shuffle = true;
  return m;
}

TEST(TransformMaterialTest, SerializationRoundTrip) {
  TransformMaterial m = TestMaterial();
  m.proportions = {0.5, 0.25, 0.25};
  TransformMaterial back = TransformMaterial::Deserialize(m.Serialize());
  EXPECT_EQ(back.permutation_key, m.permutation_key);
  EXPECT_EQ(back.mapper_seed, m.mapper_seed);
  EXPECT_EQ(back.total_params, m.total_params);
  EXPECT_EQ(back.proportions, m.proportions);
  EXPECT_EQ(back.num_aggregators, m.num_aggregators);
  EXPECT_EQ(back.enable_partition, m.enable_partition);
  EXPECT_EQ(back.enable_shuffle, m.enable_shuffle);
}

TEST(TransformMaterialTest, PaillierKeyRoundTripsOnTheWire) {
  TransformMaterial m = TestMaterial();
  m.paillier_key = Secret<Bytes>(StringToBytes("opaque serialized key blob"));
  TransformMaterial back = TransformMaterial::Deserialize(m.Serialize());
  EXPECT_EQ(back.paillier_key, m.paillier_key);
}

TEST(TransformMaterialTest, RejectsPreExtensionWireFormat) {
  // Material serialized before the paillier_key field existed ends right after the
  // shuffle flag. No such blob can still be opened (its seal AEAD is gone), so the field
  // is always read and a blob without it is malformed.
  TransformMaterial m = TestMaterial();
  net::Writer w;
  w.WriteBytes(m.permutation_key.ExposeForSeal());
  w.WriteBytes(m.mapper_seed.ExposeForSeal());
  w.WriteI64(m.total_params);
  w.WriteU64(0);
  w.WriteU32(static_cast<uint32_t>(m.num_aggregators));
  w.WriteU32(1);
  w.WriteU32(1);
  EXPECT_THROW(TransformMaterial::Deserialize(w.Take()), CheckFailure);
}

TEST(TransformMaterialTest, BuildTransformIsDeterministic) {
  TransformMaterial m = TestMaterial();
  auto t1 = m.BuildTransform();
  auto t2 = m.BuildTransform();
  // Same material -> identical partition assignment and permutations.
  EXPECT_TRUE(
      std::ranges::equal(t1->mapper().PartitionIndices(0), t2->mapper().PartitionIndices(0)));
  std::vector<float> update(1000);
  for (size_t i = 0; i < update.size(); ++i) {
    update[i] = static_cast<float>(i);
  }
  EXPECT_EQ(t1->Apply(update, 3), t2->Apply(update, 3));
}

TEST(KeyBrokerTest, ServesMaterialToVerifiedParties) {
  net::MessageBus bus;
  crypto::SecureRng setup_rng(StringToBytes("kb"));
  crypto::EcKeyPair identity = crypto::GenerateEcKey(setup_rng);
  TransformMaterial material = TestMaterial();
  KeyBroker broker(material, identity, /*expected_parties=*/2, bus,
                   crypto::SecureRng(setup_rng.NextBytes(32)));
  broker.Start();

  auto fetch = [&](const std::string& name) -> std::optional<TransformMaterial> {
    auto endpoint = bus.CreateEndpoint(name);
    crypto::SecureRng rng(StringToBytes("party-" + name));
    return FetchTransformMaterial(*endpoint, identity.public_key, rng);
  };
  std::optional<TransformMaterial> m1, m2;
  std::thread t1([&] { m1 = fetch("party0"); });
  std::thread t2([&] { m2 = fetch("party1"); });
  t1.join();
  t2.join();
  broker.Join();

  ASSERT_TRUE(m1.has_value());
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m1->permutation_key, material.permutation_key);
  EXPECT_EQ(m2->mapper_seed, material.mapper_seed);
  // Both parties derive the identical transform.
  std::vector<float> update(1000, 1.0f);
  EXPECT_EQ(m1->BuildTransform()->Apply(update, 1), m2->BuildTransform()->Apply(update, 1));
}

TEST(KeyBrokerTest, RejectsImpostorBroker) {
  // A party configured with the genuine broker key refuses material from an impostor
  // broker signing with a different identity.
  net::MessageBus bus;
  crypto::SecureRng setup_rng(StringToBytes("kb2"));
  crypto::EcKeyPair genuine = crypto::GenerateEcKey(setup_rng);
  crypto::EcKeyPair impostor = crypto::GenerateEcKey(setup_rng);
  KeyBroker broker(TestMaterial(), impostor, /*expected_parties=*/1, bus,
                   crypto::SecureRng(setup_rng.NextBytes(32)));
  broker.Start();

  auto endpoint = bus.CreateEndpoint("party0");
  crypto::SecureRng rng(StringToBytes("p"));
  // Expect verification failure against the genuine public key.
  EXPECT_FALSE(FetchTransformMaterial(*endpoint, genuine.public_key, rng).has_value());
  // Unblock the broker thread (it still waits for one successful serve).
  crypto::SecureRng rng2(StringToBytes("p2"));
  auto endpoint2 = bus.CreateEndpoint("party1");
  EXPECT_TRUE(FetchTransformMaterial(*endpoint2, impostor.public_key, rng2).has_value());
  broker.Join();
}

// Material that opens but does not parse fails the fetch, as material that does not
// open does (the party's setup then fails); it is not thrown.
TEST(KeyBrokerTest, MalformedMaterialFailsTheFetch) {
  net::MessageBus bus;
  crypto::SecureRng setup_rng(StringToBytes("kb3"));
  crypto::EcKeyPair identity = crypto::GenerateEcKey(setup_rng);
  auto broker = bus.CreateEndpoint(KeyBroker::kEndpointName);
  std::thread responder([&] {
    crypto::SecureRng rng(StringToBytes("broker"));
    RegistrationCache registrations;
    std::optional<net::SecureChannel> channel;
    // Challenge, registration, fetch: answered as the broker would, but the sealed
    // material is not a TransformMaterial.
    for (int answered = 0; answered < 3; ++answered) {
      auto m = broker->ReceiveFor(10000);
      ASSERT_TRUE(m.has_value());
      if (m->type == kAuthChallenge) {
        AnswerChallenge(*broker, *m, identity.private_key);
      } else if (m->type == kAuthRegister) {
        auto accepted = registrations.Accept(*broker, *m, identity.private_key, rng);
        ASSERT_TRUE(accepted.has_value());
        channel = std::move(accepted->second);
      } else {
        ASSERT_EQ(m->type, kKeyBrokerFetch);
        ASSERT_TRUE(channel.has_value());
        broker->Send(m->from, kKeyBrokerMaterial,
                     channel->Seal(StringToBytes("not material"), rng));
      }
    }
  });
  auto party = bus.CreateEndpoint("party0");
  crypto::SecureRng rng(StringToBytes("p"));
  EXPECT_FALSE(FetchTransformMaterial(*party, identity.public_key, rng).has_value());
  responder.join();
}

}  // namespace
}  // namespace deta::core
