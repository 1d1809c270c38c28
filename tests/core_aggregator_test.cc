// Direct protocol-level tests of a DetaAggregator node: the test plays the roles of the
// attestation proxy (provisioning), the parties (auth + uploads), the follower/initiator
// peers, and the observer. Covers the round protocol and quorum/straggler handling that
// the full-job tests cannot exercise deterministically.
#include <gtest/gtest.h>

#include "cc/attestation_proxy.h"
#include "common/telemetry.h"
#include "core/deta_aggregator.h"
#include "crypto/sha256.h"
#include "net/codec.h"
#include "net/message_bus.h"

namespace deta::core {
namespace {

// Bound on every wait for the aggregator, so a regression fails the test instead of
// hanging it.
constexpr int kWaitMs = 10000;

class AggregatorNodeTest : public ::testing::Test {
 protected:
  AggregatorNodeTest()
      : rng_(StringToBytes("agg-node-test")),
        ras_(rng_),
        platform_("plat", ras_, rng_),
        proxy_(ras_.RootKey(), crypto::Sha256Digest(Image()),
               crypto::SecureRng(StringToBytes("ap"))) {}

  static Bytes Image() { return StringToBytes("agg-image"); }

  // Launches + provisions a CVM and builds the aggregator on top of it.
  std::unique_ptr<DetaAggregator> MakeAggregator(AggregatorConfig config) {
    cvm_ = platform_.LaunchPausedCvm(config.name, Image());
    auto provision = proxy_.VerifyAndProvision(platform_, *cvm_);
    EXPECT_TRUE(provision.ok);
    token_public_ = provision.token_public;
    return std::make_unique<DetaAggregator>(config, bus_, cvm_,
                                            crypto::SecureRng(rng_.NextBytes(32)));
  }

  // Party-side helper: verify + register, returning the secure channel.
  net::SecureChannel Register(net::Endpoint& endpoint, const std::string& aggregator) {
    EXPECT_TRUE(VerifyAggregator(endpoint, aggregator, token_public_, rng_));
    auto channel = RegisterWithAggregator(endpoint, aggregator, token_public_, rng_);
    EXPECT_TRUE(channel.has_value());
    return std::move(*channel);
  }

  void Upload(net::Endpoint& endpoint, net::SecureChannel& channel,
              const std::string& aggregator, int round, const std::vector<float>& values) {
    fl::ModelUpdate update;
    update.values = values;
    update.weight = 1.0;
    net::Writer w;
    w.WriteU32(static_cast<uint32_t>(round));
    w.WriteBytes(channel.Seal(fl::SerializeUpdate(update), rng_));
    endpoint.Send(aggregator, kRoundUpload, w.Take());
  }

  std::vector<float> AwaitResult(net::Endpoint& endpoint, net::SecureChannel& channel,
                                 int expect_round) {
    auto m = endpoint.ReceiveTypeFor(kRoundResult, kWaitMs);
    if (!m.has_value()) {
      ADD_FAILURE() << endpoint.name() << " got no round result";
      return {};
    }
    net::Reader r(m->payload);
    EXPECT_EQ(static_cast<int>(r.ReadU32()), expect_round);
    auto payload = channel.Open(r.ReadBytes());
    EXPECT_TRUE(payload.has_value());
    return fl::DeserializeUpdate(*payload).values;
  }

  // Every party announces its exit, as DetaParty does after its final round, so the
  // draining aggregator stops at once instead of waiting out its drain timeout.
  static void AnnounceDone(std::initializer_list<net::Endpoint*> parties) {
    for (net::Endpoint* party : parties) {
      party->Send("agg0", kPartyDone, {});
    }
  }

  net::MessageBus bus_;
  crypto::SecureRng rng_;
  cc::RemoteAttestationService ras_;
  cc::SevPlatform platform_;
  cc::AttestationProxy proxy_;
  std::shared_ptr<cc::Cvm> cvm_;
  crypto::EcPoint token_public_;
};

AggregatorConfig BaseConfig() {
  AggregatorConfig config;
  config.name = "agg0";  // the first (and only) aggregator: the initiator
  config.rounds = 1;
  config.algorithm = "iterative_averaging";
  config.party_names = {"p0", "p1"};
  config.aggregator_names = {"agg0"};
  return config;
}

TEST_F(AggregatorNodeTest, FullRoundProtocol) {
  auto aggregator = MakeAggregator(BaseConfig());
  aggregator->Start();

  auto p0 = bus_.CreateEndpoint("p0");
  auto p1 = bus_.CreateEndpoint("p1");
  auto driver = bus_.CreateEndpoint("driver");

  net::SecureChannel c0 = Register(*p0, "agg0");
  net::SecureChannel c1 = Register(*p1, "agg0");

  driver->Send("agg0", kJobStart, {});
  // Both parties get the round.begin broadcast.
  EXPECT_TRUE(p0->ReceiveTypeFor(kRoundBegin, kWaitMs).has_value());
  EXPECT_TRUE(p1->ReceiveTypeFor(kRoundBegin, kWaitMs).has_value());

  Upload(*p0, c0, "agg0", 1, {1.0f, 2.0f});
  Upload(*p1, c1, "agg0", 1, {3.0f, 4.0f});
  EXPECT_EQ(AwaitResult(*p0, c0, 1), (std::vector<float>{2.0f, 3.0f}));
  EXPECT_EQ(AwaitResult(*p1, c1, 1), (std::vector<float>{2.0f, 3.0f}));

  // Last round complete: parties receive shutdown; aggregator thread exits.
  EXPECT_TRUE(p0->ReceiveTypeFor(kShutdown, kWaitMs).has_value());
  EXPECT_TRUE(p1->ReceiveTypeFor(kShutdown, kWaitMs).has_value());
  AnnounceDone({p0.get(), p1.get()});
  aggregator->Join();
}

TEST_F(AggregatorNodeTest, QuorumAggregatesWithoutStragglers) {
  AggregatorConfig config = BaseConfig();
  config.party_names = {"p0", "p1", "p2"};
  config.quorum = 2;  // tolerate one straggler
  auto aggregator = MakeAggregator(config);
  aggregator->Start();

  auto p0 = bus_.CreateEndpoint("p0");
  auto p1 = bus_.CreateEndpoint("p1");
  auto p2 = bus_.CreateEndpoint("p2");
  auto driver = bus_.CreateEndpoint("driver");
  net::SecureChannel c0 = Register(*p0, "agg0");
  net::SecureChannel c1 = Register(*p1, "agg0");
  net::SecureChannel c2 = Register(*p2, "agg0");

  driver->Send("agg0", kJobStart, {});
  p0->ReceiveTypeFor(kRoundBegin, kWaitMs);
  p1->ReceiveTypeFor(kRoundBegin, kWaitMs);
  p2->ReceiveTypeFor(kRoundBegin, kWaitMs);

  // Only two of three parties upload; the round must still complete.
  Upload(*p0, c0, "agg0", 1, {2.0f});
  Upload(*p1, c1, "agg0", 1, {4.0f});
  EXPECT_EQ(AwaitResult(*p0, c0, 1), (std::vector<float>{3.0f}));
  // The straggler still receives the aggregated result (it is registered).
  EXPECT_EQ(AwaitResult(*p2, c2, 1), (std::vector<float>{3.0f}));

  // The straggler's late upload for the completed round is dropped without crashing.
  Upload(*p2, c2, "agg0", 1, {100.0f});

  p0->ReceiveTypeFor(kShutdown, kWaitMs);
  AnnounceDone({p0.get(), p1.get(), p2.get()});
  aggregator->Join();
}

// A round.begin re-send reaches only those the initiator has not heard from this round:
// p0 uploads and follower agg1 reports round.done, so only the silent p1 gets the
// notice again.
TEST_F(AggregatorNodeTest, RoundBeginResendReachesOnlyTheSilent) {
  AggregatorConfig config = BaseConfig();
  config.aggregator_names = {"agg0", "agg1"};
  // Short enough that the re-send fires within the test, long enough that p0's upload
  // and agg1's round.done reach the aggregator first.
  config.retry.initial_timeout_ms = 300;
  auto aggregator = MakeAggregator(config);
  aggregator->Start();

  auto p0 = bus_.CreateEndpoint("p0");
  auto p1 = bus_.CreateEndpoint("p1");
  auto agg1 = bus_.CreateEndpoint("agg1");
  auto driver = bus_.CreateEndpoint("driver");
  net::SecureChannel c0 = Register(*p0, "agg0");
  net::SecureChannel c1 = Register(*p1, "agg0");

  driver->Send("agg0", kJobStart, {});
  ASSERT_TRUE(p0->ReceiveTypeFor(kRoundBegin, kWaitMs).has_value());
  Upload(*p0, c0, "agg0", 1, {1.0f});
  ASSERT_TRUE(agg1->ReceiveTypeFor(kRoundBegin, kWaitMs).has_value());
  net::Writer done;
  done.WriteU32(1);
  agg1->Send("agg0", kRoundDone, done.Take());
  ASSERT_TRUE(p1->ReceiveTypeFor(kRoundBegin, kWaitMs).has_value());
  // The re-send reaches p1, and neither p0 nor agg1.
  EXPECT_TRUE(p1->ReceiveTypeFor(kRoundBegin, kWaitMs).has_value());
  EXPECT_FALSE(p0->ReceiveTypeFor(kRoundBegin, 100).has_value());
  EXPECT_FALSE(agg1->ReceiveTypeFor(kRoundBegin, 100).has_value());

  Upload(*p1, c1, "agg0", 1, {3.0f});
  EXPECT_EQ(AwaitResult(*p0, c0, 1), (std::vector<float>{2.0f}));
  EXPECT_EQ(AwaitResult(*p1, c1, 1), (std::vector<float>{2.0f}));
  p0->ReceiveTypeFor(kShutdown, kWaitMs);
  AnnounceDone({p0.get(), p1.get()});
  aggregator->Join();
}

TEST_F(AggregatorNodeTest, UnregisteredUploadIgnored) {
  auto aggregator = MakeAggregator(BaseConfig());
  aggregator->Start();

  auto p0 = bus_.CreateEndpoint("p0");
  auto p1 = bus_.CreateEndpoint("p1");
  auto intruder = bus_.CreateEndpoint("intruder");
  auto driver = bus_.CreateEndpoint("driver");
  net::SecureChannel c0 = Register(*p0, "agg0");
  net::SecureChannel c1 = Register(*p1, "agg0");

  driver->Send("agg0", kJobStart, {});
  p0->ReceiveTypeFor(kRoundBegin, kWaitMs);

  // The intruder has no channel; its garbage upload must not poison the round.
  net::Writer w;
  w.WriteU32(1);
  w.WriteBytes(Bytes(64, 0xff));
  intruder->Send("agg0", kRoundUpload, w.Take());

  Upload(*p0, c0, "agg0", 1, {1.0f});
  Upload(*p1, c1, "agg0", 1, {5.0f});
  EXPECT_EQ(AwaitResult(*p0, c0, 1), (std::vector<float>{3.0f}));
  p0->ReceiveTypeFor(kShutdown, kWaitMs);
  AnnounceDone({p0.get(), p1.get()});
  aggregator->Join();
}

// Any endpoint can reach an aggregator (over TCP, any connected peer). An intruder's
// empty round.done and round.begin do not parse: the node drops and counts each, and the
// round still completes.
TEST_F(AggregatorNodeTest, MalformedMessagesAreDroppedAndCounted) {
  const telemetry::TelemetrySnapshot start = telemetry::Snapshot();
  auto aggregator = MakeAggregator(BaseConfig());
  aggregator->Start();

  auto p0 = bus_.CreateEndpoint("p0");
  auto p1 = bus_.CreateEndpoint("p1");
  auto intruder = bus_.CreateEndpoint("intruder");
  auto driver = bus_.CreateEndpoint("driver");
  intruder->Send("agg0", kRoundDone, {});
  intruder->Send("agg0", kRoundBegin, {});
  net::SecureChannel c0 = Register(*p0, "agg0");
  net::SecureChannel c1 = Register(*p1, "agg0");

  driver->Send("agg0", kJobStart, {});
  p0->ReceiveTypeFor(kRoundBegin, kWaitMs);
  Upload(*p0, c0, "agg0", 1, {1.0f});
  Upload(*p1, c1, "agg0", 1, {5.0f});
  EXPECT_EQ(AwaitResult(*p0, c0, 1), (std::vector<float>{3.0f}));
  EXPECT_EQ(AwaitResult(*p1, c1, 1), (std::vector<float>{3.0f}));
  p0->ReceiveTypeFor(kShutdown, kWaitMs);
  AnnounceDone({p0.get(), p1.get()});
  aggregator->Join();

  const telemetry::TelemetrySnapshot delta =
      telemetry::Delta(start, telemetry::Snapshot());
  auto malformed = delta.counters.find("core.role.malformed_messages");
  ASSERT_NE(malformed, delta.counters.end());
  EXPECT_EQ(malformed->second, 2u);
}

TEST_F(AggregatorNodeTest, StoresFragmentsInCvmMemory) {
  auto aggregator = MakeAggregator(BaseConfig());
  aggregator->Start();

  auto p0 = bus_.CreateEndpoint("p0");
  auto p1 = bus_.CreateEndpoint("p1");
  auto driver = bus_.CreateEndpoint("driver");
  net::SecureChannel c0 = Register(*p0, "agg0");
  net::SecureChannel c1 = Register(*p1, "agg0");
  driver->Send("agg0", kJobStart, {});
  p0->ReceiveTypeFor(kRoundBegin, kWaitMs);
  Upload(*p0, c0, "agg0", 1, {7.0f});
  Upload(*p1, c1, "agg0", 1, {9.0f});
  AwaitResult(*p0, c0, 1);
  p0->ReceiveTypeFor(kShutdown, kWaitMs);
  AnnounceDone({p0.get(), p1.get()});
  aggregator->Join();

  // The staged fragment and the aggregated result live in encrypted CVM memory.
  auto dump = cvm_->Breach();
  EXPECT_TRUE(dump.count("update:p0:r1"));
  EXPECT_TRUE(dump.count("update:p1:r1"));
  EXPECT_TRUE(dump.count("aggregated:r1"));
  EXPECT_EQ(fl::DeserializeUpdate(dump.at("update:p0:r1")).values,
            (std::vector<float>{7.0f}));
}

}  // namespace
}  // namespace deta::core
