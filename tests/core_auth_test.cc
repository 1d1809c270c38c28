// Phase-II authentication protocol: challenge/response and registration over a live bus,
// including the negative paths (impersonation, tampering).
#include <gtest/gtest.h>

#include <thread>

#include "core/auth_protocol.h"
#include "net/codec.h"
#include "net/message_bus.h"

namespace deta::core {
namespace {

class AuthTest : public ::testing::Test {
 protected:
  AuthTest()
      : rng_(StringToBytes("auth-test")),
        token_(crypto::GenerateEcKey(rng_)),
        party_(bus_.CreateEndpoint("party0")),
        aggregator_(bus_.CreateEndpoint("agg0")) {}

  // Runs the aggregator side for |challenges| challenge messages and |registrations|
  // registration messages, using |key| as its token private key.
  std::thread AggregatorResponder(const Secret<crypto::BigUint>& key, int challenges,
                                  int registrations) {
    return std::thread([this, key, challenges, registrations] {
      crypto::SecureRng agg_rng(StringToBytes("agg-rng"));
      RegistrationCache cache;
      for (int i = 0; i < challenges; ++i) {
        auto m = aggregator_->ReceiveType(kAuthChallenge);
        ASSERT_TRUE(m.has_value());
        AnswerChallenge(*aggregator_, *m, key);
      }
      for (int i = 0; i < registrations; ++i) {
        auto m = aggregator_->ReceiveType(kAuthRegister);
        ASSERT_TRUE(m.has_value());
        auto channel = cache.Accept(*aggregator_, *m, key, agg_rng);
        ASSERT_TRUE(channel.has_value());
        server_channels_.push_back(std::move(channel->second));
      }
    });
  }

  net::MessageBus bus_;
  crypto::SecureRng rng_;
  crypto::EcKeyPair token_;
  std::unique_ptr<net::Endpoint> party_;
  std::unique_ptr<net::Endpoint> aggregator_;
  std::vector<net::SecureChannel> server_channels_;
};

TEST_F(AuthTest, ChallengeResponseSucceedsWithProvisionedToken) {
  std::thread responder = AggregatorResponder(token_.private_key, 1, 0);
  EXPECT_TRUE(VerifyAggregator(*party_, "agg0", token_.public_key, rng_));
  responder.join();
}

TEST_F(AuthTest, ChallengeResponseFailsWithWrongKey) {
  // An impersonator without the provisioned token signs with its own key.
  crypto::EcKeyPair impostor = crypto::GenerateEcKey(rng_);
  std::thread responder = AggregatorResponder(impostor.private_key, 1, 0);
  EXPECT_FALSE(VerifyAggregator(*party_, "agg0", token_.public_key, rng_));
  responder.join();
}

TEST_F(AuthTest, RegistrationEstablishesWorkingChannel) {
  std::thread responder = AggregatorResponder(token_.private_key, 0, 1);
  auto channel = RegisterWithAggregator(*party_, "agg0", token_.public_key, rng_);
  responder.join();
  ASSERT_TRUE(channel.has_value());
  ASSERT_EQ(server_channels_.size(), 1u);

  // Both directions seal/open across the pair.
  crypto::SecureRng traffic_rng(StringToBytes("traffic"));
  Bytes frame = channel->Seal(StringToBytes("upstream fragment"), traffic_rng);
  auto opened = server_channels_[0].Open(frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(BytesToString(*opened), "upstream fragment");

  Bytes down = server_channels_[0].Seal(StringToBytes("aggregated"), traffic_rng);
  auto opened_down = channel->Open(down);
  ASSERT_TRUE(opened_down.has_value());
  EXPECT_EQ(BytesToString(*opened_down), "aggregated");
}

TEST_F(AuthTest, RegistrationFailsWithImpostorToken) {
  crypto::EcKeyPair impostor = crypto::GenerateEcKey(rng_);
  std::thread responder = AggregatorResponder(impostor.private_key, 0, 1);
  auto channel = RegisterWithAggregator(*party_, "agg0", token_.public_key, rng_);
  responder.join();
  EXPECT_FALSE(channel.has_value());
}

// A registration ack that does not parse fails the handshake as a bad signature does.
// Over TCP a frame's sender is whatever the frame claims, so anyone can answer as agg0.
TEST_F(AuthTest, TruncatedRegistrationAckFailsSoftly) {
  std::thread responder([this] {
    auto m = aggregator_->ReceiveTypeFor(kAuthRegister, 10000);
    ASSERT_TRUE(m.has_value());
    net::Writer w;
    w.WriteBytes(Bytes(33, 0x02));  // the share, and no signature after it
    aggregator_->Send(m->from, kAuthRegisterAck, w.Take());
  });
  EXPECT_FALSE(
      RegisterWithAggregator(*party_, "agg0", token_.public_key, rng_).has_value());
  responder.join();
}

TEST_F(AuthTest, MalformedRegistrationShareRejected) {
  crypto::SecureRng agg_rng(StringToBytes("agg"));
  net::Message bogus;
  bogus.from = "party0";
  bogus.to = "agg0";
  bogus.type = kAuthRegister;
  bogus.payload = Bytes(65, 0x01);  // not a curve point
  RegistrationCache cache;
  auto channel = cache.Accept(*aggregator_, bogus, token_.private_key, agg_rng);
  EXPECT_FALSE(channel.has_value());
}

TEST_F(AuthTest, ChannelIdBindsPartyAndAggregator) {
  EXPECT_EQ(ChannelId("p", "a"), "chan:p:a");
  EXPECT_NE(ChannelId("p", "a"), ChannelId("a", "p"));
}

TEST_F(AuthTest, MultiplePartiesRegisterConcurrently) {
  auto party1 = bus_.CreateEndpoint("party1");
  auto party2 = bus_.CreateEndpoint("party2");
  std::thread responder = AggregatorResponder(token_.private_key, 0, 2);
  crypto::SecureRng rng1(StringToBytes("r1")), rng2(StringToBytes("r2"));
  std::optional<net::SecureChannel> c1, c2;
  std::thread t1([&] { c1 = RegisterWithAggregator(*party1, "agg0", token_.public_key, rng1); });
  std::thread t2([&] { c2 = RegisterWithAggregator(*party2, "agg0", token_.public_key, rng2); });
  t1.join();
  t2.join();
  responder.join();
  ASSERT_TRUE(c1.has_value());
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(server_channels_.size(), 2u);
  EXPECT_NE(c1->channel_id(), c2->channel_id());
}

}  // namespace
}  // namespace deta::core
