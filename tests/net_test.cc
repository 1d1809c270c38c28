#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/telemetry.h"
#include "fl/paillier_fusion.h"
#include "net/codec.h"
#include "net/fault.h"
#include "net/message_bus.h"
#include "net/retry.h"
#include "net/secure_channel.h"
#include "net/tcp_transport.h"

namespace deta::net {
namespace {

// Reads the net.bus.* telemetry counters accumulated since construction: a Delta over
// the process-global registry, so only this test's traffic counts.
class BusCounters {
 public:
  BusCounters() : start_(telemetry::Snapshot()) {}
  uint64_t operator()(const std::string& name) const {
    telemetry::TelemetrySnapshot delta = telemetry::Delta(start_, telemetry::Snapshot());
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0 : it->second;
  }

 private:
  telemetry::TelemetrySnapshot start_;
};

TEST(CodecTest, AllTypesRoundTrip) {
  Writer w;
  w.WriteU32(0xdeadbeef);
  w.WriteU64(1ULL << 60);
  w.WriteI64(-12345);
  w.WriteFloat(3.25f);
  w.WriteDouble(-2.5e-300);
  w.WriteBytes({9, 8, 7});
  w.WriteString("deta");
  w.WriteFloatVector({1.0f, -2.0f, 0.5f});
  w.WriteU32Vector({1, 2, 3});
  Bytes wire = w.Take();

  Reader r(wire);
  EXPECT_EQ(r.ReadU32(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64(), 1ULL << 60);
  EXPECT_EQ(r.ReadI64(), -12345);
  EXPECT_FLOAT_EQ(r.ReadFloat(), 3.25f);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), -2.5e-300);
  EXPECT_EQ(r.ReadBytes(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.ReadString(), "deta");
  EXPECT_EQ(r.ReadFloatVector(), (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_EQ(r.ReadU32Vector(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, TruncatedReadThrows) {
  Writer w;
  w.WriteBytes({1, 2, 3, 4, 5});
  Bytes wire = w.Take();
  wire.resize(wire.size() - 2);
  Reader r(wire);
  EXPECT_THROW(r.ReadBytes(), CheckFailure);
}

TEST(CodecTest, MaliciousLengthPrefixRejected) {
  Bytes wire;
  AppendU64(wire, 1ULL << 40);  // claims a 1 TiB payload
  Reader r(wire);
  EXPECT_THROW(r.ReadBytes(), CheckFailure);
  Reader r2(wire);
  EXPECT_THROW(r2.ReadFloatVector(), CheckFailure);
  // Lengths whose end offset wraps 2^64 back inside the buffer: 8 + (2^64 - 8) is 0,
  // and (2^62 + 1) elements of 4 bytes are 4 bytes.
  Bytes wraps_bytes;
  AppendU64(wraps_bytes, ~uint64_t{0} - 7);
  Reader r3(wraps_bytes);
  EXPECT_THROW(r3.ReadBytes(), CheckFailure);
  Bytes wraps_elements;
  AppendU64(wraps_elements, (uint64_t{1} << 62) + 1);
  AppendU32(wraps_elements, 0);
  Reader r4(wraps_elements);
  EXPECT_THROW(r4.ReadFloatVector(), CheckFailure);
  Reader r5(wraps_elements);
  EXPECT_THROW(r5.ReadU32Vector(), CheckFailure);
  // A ciphertext count the bytes behind it cannot hold is refused before anything is
  // reserved for it.
  for (uint64_t count : {uint64_t{1} << 40, ~uint64_t{0}}) {
    Bytes ciphertexts;
    AppendU64(ciphertexts, count);
    EXPECT_THROW(fl::DeserializeCiphertexts(ciphertexts), CheckFailure) << count;
  }
}

TEST(MessageBusTest, RoutesByName) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  a->Send("b", "greet", StringToBytes("hello"));
  auto m = b->Receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->from, "a");
  EXPECT_EQ(m->type, "greet");
  EXPECT_EQ(BytesToString(m->payload), "hello");
}

TEST(MessageBusTest, DuplicateNameRejected) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("dup");
  EXPECT_THROW(bus.CreateEndpoint("dup"), CheckFailure);
}

TEST(MessageBusTest, NameReusableAfterDestruction) {
  MessageBus bus;
  {
    auto a = bus.CreateEndpoint("tmp");
  }
  EXPECT_NO_THROW(bus.CreateEndpoint("tmp"));
}

// The bus loses a message to a name that was never created, or to a closed endpoint,
// the way TCP loses one to a dead peer: the send succeeds, nothing is delivered, the
// loss counts once as net.bus.dropped with no warning, and only a retransmission
// recovers it.
void ExpectLostOnce(Endpoint& from, const std::string& to) {
  BusCounters counters;
  EXPECT_TRUE(from.Send(to, "x.lost", {}));
  EXPECT_EQ(counters("net.bus.dropped"), 1u);
  EXPECT_EQ(counters("net.bus.dropped.x"), 1u);
  EXPECT_EQ(counters("net.bus.delivered"), 0u);
  EXPECT_EQ(counters("net.bus.delivered_bytes"), 0u);
  EXPECT_EQ(counters("common.log.warnings"), 0u);
}

TEST(MessageBusTest, UnknownTargetDropped) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  ExpectLostOnce(*a, "ghost");
  // A name created after the loss receives nothing: the lost message is gone for good.
  auto ghost = bus.CreateEndpoint("ghost");
  EXPECT_FALSE(ghost->ReceiveFor(20).has_value());
}

// The send fails the way a send to a dead TCP peer does: silently, as a lost message.
TEST(MessageBusTest, SendToClosedEndpointFails) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  b->Close();
  ExpectLostOnce(*a, "b");
  EXPECT_FALSE(b->ReceiveFor(20).has_value());
}

TEST(MessageBusTest, ClosedFlagDisambiguatesTimeout) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  EXPECT_FALSE(a->ReceiveFor(10).has_value());
  EXPECT_FALSE(a->closed());  // genuine timeout
  a->Close();
  EXPECT_FALSE(a->ReceiveFor(10).has_value());
  EXPECT_TRUE(a->closed());  // closed, not slow
}

TEST(MessageBusTest, ReceiveTypeStashesOthers) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  a->Send("b", "first", {});
  a->Send("b", "second", {});
  a->Send("b", "first", {});
  auto m = b->ReceiveType("second");
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, "second");
  // Stashed messages delivered afterwards, order preserved.
  EXPECT_EQ(b->Receive()->type, "first");
  EXPECT_EQ(b->Receive()->type, "first");
}

TEST(MessageBusTest, ReceiveForTimesOut) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(a->ReceiveFor(50).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(45));
}

TEST(MessageBusTest, ReceiveTypeForTimesOutButKeepsStash) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  b->Send("a", "other", {});
  // Waiting for a type that never comes: times out, but the unrelated message is stashed
  // and still deliverable afterwards.
  EXPECT_FALSE(a->ReceiveTypeFor("wanted", 50).has_value());
  auto m = a->Receive();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, "other");
}

TEST(MessageBusTest, ReceiveTypeForReturnsEarlyWhenAvailable) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  b->Send("a", "wanted", StringToBytes("x"));
  auto start = std::chrono::steady_clock::now();
  auto m = a->ReceiveTypeFor("wanted", 5000);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(1000));
  ASSERT_TRUE(m.has_value());
}

TEST(MessageBusTest, CloseUnblocksReceiver) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  std::thread closer([&] { a->Close(); });
  auto m = a->Receive();
  closer.join();
  EXPECT_FALSE(m.has_value());
}

TEST(MessageBusTest, CrossThreadPingPong) {
  MessageBus bus;
  auto ping = bus.CreateEndpoint("ping");
  auto pong = bus.CreateEndpoint("pong");
  const int kRounds = 200;
  std::thread responder([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto m = pong->Receive();
      ASSERT_TRUE(m.has_value());
      pong->Send(m->from, "pong", m->payload);
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    Bytes payload;
    AppendU32(payload, static_cast<uint32_t>(i));
    ping->Send("pong", "ping", payload);
    auto m = ping->Receive();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(ReadU32(m->payload, 0), static_cast<uint32_t>(i));
  }
  responder.join();
}

TEST(MessageBusTest, FanInFromManySenders) {
  MessageBus bus;
  auto sink = bus.CreateEndpoint("sink");
  const int kSenders = 8, kEach = 50;
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  for (int s = 0; s < kSenders; ++s) {
    endpoints.push_back(bus.CreateEndpoint("s" + std::to_string(s)));
  }
  for (int s = 0; s < kSenders; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < kEach; ++i) {
        endpoints[static_cast<size_t>(s)]->Send("sink", "data", Bytes(4));
      }
    });
  }
  int received = 0;
  for (int i = 0; i < kSenders * kEach; ++i) {
    if (sink->Receive().has_value()) {
      ++received;
    }
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(received, kSenders * kEach);
}

// --- fault injection ---

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultPlan plan;
  plan.seed = 42;
  plan.default_rates.drop = 0.3;
  plan.default_rates.duplicate = 0.2;
  plan.default_rates.reorder = 0.15;
  FaultInjector x(plan);
  FaultInjector y(plan);
  for (int i = 0; i < 300; ++i) {
    const std::string to = i % 2 ? "b" : "c";
    FaultDecision dx = x.Decide("a", to, "t");
    FaultDecision dy = y.Decide("a", to, "t");
    EXPECT_EQ(dx.drop, dy.drop) << i;
    EXPECT_EQ(dx.duplicate, dy.duplicate) << i;
    EXPECT_EQ(dx.reorder, dy.reorder) << i;
  }
}

TEST(FaultInjectorTest, DifferentSeedDifferentSchedule) {
  FaultPlan plan;
  plan.seed = 42;
  plan.default_rates.drop = 0.5;
  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector x(plan);
  FaultInjector y(other);
  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    if (x.Decide("a", "b", "t").drop != y.Decide("a", "b", "t").drop) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(FaultInjectorTest, ImmuneEndpointsNeverFaulted) {
  FaultPlan plan;
  plan.seed = 1;
  plan.default_rates.drop = 1.0;
  plan.immune.insert("observer");
  FaultInjector inj(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(inj.Decide("a", "observer", "t").drop);
    EXPECT_FALSE(inj.Decide("observer", "a", "t").drop);
    EXPECT_TRUE(inj.Decide("a", "b", "t").drop);
  }
}

TEST(FaultInjectorTest, OverrideMatchesPrefixAndWildcards) {
  FaultPlan plan;
  plan.seed = 9;
  EdgeFault only_uploads;
  only_uploads.from = "p0";
  only_uploads.type_prefix = "round.upload";
  only_uploads.rates.drop = 1.0;
  plan.overrides.push_back(only_uploads);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.Decide("p0", "agg0", "round.upload").drop);
  EXPECT_TRUE(inj.Decide("p0", "agg1", "round.upload").drop);  // empty |to| = any target
  EXPECT_FALSE(inj.Decide("p0", "agg0", "round.done").drop);
  EXPECT_FALSE(inj.Decide("p1", "agg0", "round.upload").drop);
}

TEST(FaultInjectorTest, MaxFaultsBudgetExhausts) {
  FaultPlan plan;
  plan.seed = 2;
  EdgeFault burst;
  burst.type_prefix = "t";
  burst.rates.drop = 1.0;
  burst.max_faults = 2;
  plan.overrides.push_back(burst);
  FaultInjector inj(plan);
  EXPECT_TRUE(inj.Decide("a", "b", "t").drop);
  EXPECT_TRUE(inj.Decide("a", "b", "t").drop);
  // Budget spent: the override stops matching and the defaults (no faults) apply.
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(inj.Decide("a", "b", "t").drop) << i;
  }
}

// Send-pipeline checks run on both backends: the MessageBusTest and TcpTransportTest
// twins below hand each one a fresh transport, so fault and accounting behaviour is
// pinned over either wire. Receives carry deadlines because TCP delivers from its event
// loop, after Send returns.
void ExpectFaultDropIsCountedNotDelivered(Transport& transport) {
  BusCounters counters;
  FaultPlan plan;
  plan.seed = 7;
  plan.default_rates.drop = 1.0;
  transport.SetFaultPlan(plan);
  auto a = transport.CreateEndpoint("a");
  auto b = transport.CreateEndpoint("b");
  // A fault-dropped message looks like network loss to the sender: Send succeeds.
  EXPECT_TRUE(a->Send("b", "lost", {}));
  EXPECT_FALSE(b->ReceiveFor(30).has_value());
  EXPECT_EQ(counters("net.bus.delivered"), 0u);
  EXPECT_EQ(counters("net.bus.fault_dropped"), 1u);
  EXPECT_EQ(counters("net.bus.fault_dropped.lost"), 1u);
  // Deliberate losses stay out of the must-be-zero drop counter.
  EXPECT_EQ(counters("net.bus.dropped"), 0u);
}

void ExpectDuplicatesAreSuppressedByReceiver(Transport& transport) {
  FaultPlan plan;
  plan.seed = 11;
  plan.default_rates.duplicate = 1.0;
  transport.SetFaultPlan(plan);
  auto a = transport.CreateEndpoint("a");
  auto b = transport.CreateEndpoint("b");
  a->Send("b", "once", StringToBytes("payload"));
  auto first = b->ReceiveFor(5000);
  ASSERT_TRUE(first.has_value());
  // The duplicate carries the same sequence tag and must be invisible to the receiver.
  EXPECT_FALSE(b->ReceiveFor(50).has_value());
  // Distinct sends (fresh tags) are NOT deduplicated.
  a->Send("b", "twice", {});
  a->Send("b", "twice", {});
  EXPECT_TRUE(b->ReceiveFor(5000).has_value());
  EXPECT_TRUE(b->ReceiveFor(5000).has_value());
}

void ExpectReorderSwapsAdjacentMessages(Transport& transport) {
  FaultPlan plan;
  plan.seed = 3;
  plan.default_rates.reorder = 1.0;
  transport.SetFaultPlan(plan);
  auto a = transport.CreateEndpoint("a");
  auto b = transport.CreateEndpoint("b");
  a->Send("b", "m1", {});
  a->Send("b", "m2", {});
  a->Send("b", "m3", {});
  a->Send("b", "m4", {});
  // One-slot holdback: each held message is released right after its successor.
  for (const char* expected : {"m2", "m1", "m4", "m3"}) {
    std::optional<Message> m = b->ReceiveFor(5000);
    ASSERT_TRUE(m.has_value()) << expected;
    EXPECT_EQ(m->type, expected);
  }
}

void ExpectByteAccounting(Transport& transport) {
  BusCounters counters;
  auto a = transport.CreateEndpoint("a");
  auto b = transport.CreateEndpoint("b");
  a->Send("b", "t", Bytes(100));
  a->Send("b", "t", Bytes(50));
  b->Send("a", "t", Bytes(10));
  EXPECT_TRUE(b->ReceiveFor(5000).has_value());
  EXPECT_TRUE(b->ReceiveFor(5000).has_value());
  EXPECT_TRUE(a->ReceiveFor(5000).has_value());
  EXPECT_EQ(counters("net.bus.sent"), 3u);
  EXPECT_EQ(counters("net.bus.delivered"), 3u);
  EXPECT_EQ(counters("net.bus.delivered.t"), 3u);
  // Payloads plus, per message, the one-byte names and type and the 8-byte tag.
  EXPECT_EQ(counters("net.bus.delivered_bytes"), 160u + 3 * (3 + sizeof(uint64_t)));
  EXPECT_EQ(counters("net.bus.sent_bytes"), counters("net.bus.delivered_bytes"));
}

TEST(MessageBusTest, FaultDropIsCountedNotDelivered) {
  MessageBus bus;
  ExpectFaultDropIsCountedNotDelivered(bus);
}

TEST(MessageBusTest, BusDuplicatesAreSuppressedByReceiver) {
  MessageBus bus;
  ExpectDuplicatesAreSuppressedByReceiver(bus);
}

TEST(MessageBusTest, ReorderSwapsAdjacentMessages) {
  MessageBus bus;
  ExpectReorderSwapsAdjacentMessages(bus);
}

TEST(MessageBusTest, ByteAccounting) {
  MessageBus bus;
  ExpectByteAccounting(bus);
}

// The same checks over a loopback TcpTransport that hosts its own registry: every
// message crosses a real socket and is delivered by the event loop.
TEST(TcpTransportTest, FaultDropIsCountedNotDelivered) {
  TcpTransport tcp{TcpTransportOptions{}};
  ExpectFaultDropIsCountedNotDelivered(tcp);
}

TEST(TcpTransportTest, DuplicatesAreSuppressedByReceiver) {
  TcpTransport tcp{TcpTransportOptions{}};
  ExpectDuplicatesAreSuppressedByReceiver(tcp);
}

TEST(TcpTransportTest, ReorderSwapsAdjacentMessages) {
  TcpTransport tcp{TcpTransportOptions{}};
  ExpectReorderSwapsAdjacentMessages(tcp);
}

// A frame that does not parse closes its connection, as an oversized or unknown-kind
// frame does, and the node keeps delivering.
TEST(TcpTransportTest, MalformedFrameClosesItsConnectionNotTheNode) {
  BusCounters counters;
  TcpTransport tcp{TcpTransportOptions{}};
  auto a = tcp.CreateEndpoint("a");
  auto b = tcp.CreateEndpoint("b");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  timeval timeout{10, 0};  // a node that never closes fails the test, not hangs it
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(tcp.listen_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Body length 4, kind 1 (a message frame), and none of a message's fields.
  const uint8_t frame[] = {4, 0, 0, 0, 1, 0, 0, 0};
  ASSERT_EQ(::send(fd, frame, sizeof(frame), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(frame)));
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // the node closed the connection
  ::close(fd);
  EXPECT_EQ(counters("net.bus.malformed_frames"), 1u);

  ASSERT_TRUE(a->Send("b", "after", StringToBytes("still up")));
  std::optional<Message> m = b->ReceiveFor(5000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(BytesToString(m->payload), "still up");
}

TEST(TcpTransportTest, ByteAccounting) {
  TcpTransport tcp{TcpTransportOptions{}};
  ExpectByteAccounting(tcp);
}

TEST(MessageBusTest, ReceiveTypeSelectsAcrossReorderedDelivery) {
  MessageBus bus;
  FaultPlan plan;
  plan.seed = 5;
  plan.default_rates.reorder = 1.0;
  bus.SetFaultPlan(plan);
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  a->Send("b", "wanted", StringToBytes("w"));
  a->Send("b", "other", StringToBytes("o"));
  // Delivered other-then-wanted; selective receive still finds the wanted message and
  // stashes the rest in delivery order.
  auto m = b->ReceiveTypeFor("wanted", 1000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(BytesToString(m->payload), "w");
  auto rest = b->Receive();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->type, "other");
}

TEST(MessageBusTest, SameSeedSameDropSchedule) {
  auto run = [](uint64_t seed) {
    MessageBus bus;
    FaultPlan plan;
    plan.seed = seed;
    plan.default_rates.drop = 0.4;
    bus.SetFaultPlan(plan);
    auto a = bus.CreateEndpoint("a");
    auto b = bus.CreateEndpoint("b");
    std::vector<bool> delivered;
    for (int i = 0; i < 100; ++i) {
      a->Send("b", "t", {});
      delivered.push_back(b->ReceiveFor(5).has_value());
    }
    return delivered;
  };
  EXPECT_EQ(run(21), run(21));
  EXPECT_NE(run(21), run(22));
}

// --- bounded request/reply ---

TEST(RetryTest, RequestReplyRecoversFromDrops) {
  BusCounters counters;
  MessageBus bus;
  FaultPlan plan;
  plan.seed = 13;
  plan.default_rates.drop = 0.5;  // both directions lossy
  bus.SetFaultPlan(plan);
  auto client = bus.CreateEndpoint("client");
  auto server = bus.CreateEndpoint("server");
  std::thread responder([&] {
    // Idempotent echo server: answers every request that survives the bus.
    for (;;) {
      auto m = server->Receive();
      if (!m.has_value()) {
        return;
      }
      server->Send(m->from, "rep", m->payload);
    }
  });
  RetryPolicy policy;
  policy.initial_timeout_ms = 50;
  policy.max_attempts = 10;
  for (int i = 0; i < 8; ++i) {
    auto reply = RequestReply(*client, "server", "req", StringToBytes("ping"), "rep",
                              policy);
    ASSERT_TRUE(reply.has_value()) << i;
    EXPECT_EQ(BytesToString(reply->payload), "ping");
  }
  EXPECT_GT(counters("net.bus.fault_dropped"), 0u);  // the retries actually did something
  server->Close();
  responder.join();
}

TEST(RetryTest, RequestReplyMatchesSender) {
  MessageBus bus;
  auto client = bus.CreateEndpoint("client");
  auto right = bus.CreateEndpoint("right");
  auto wrong = bus.CreateEndpoint("wrong");
  // A stray reply of the right type from the wrong peer must not satisfy the call.
  wrong->Send("client", "rep", StringToBytes("impostor"));
  std::thread responder([&] {
    auto m = right->Receive();
    ASSERT_TRUE(m.has_value());
    right->Send(m->from, "rep", StringToBytes("genuine"));
  });
  auto reply = RequestReply(*client, "right", "req", {}, "rep");
  responder.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->from, "right");
  EXPECT_EQ(BytesToString(reply->payload), "genuine");
}

// A peer that does not exist yet is a lost request, not a failure: the attempt times
// out, and the retransmission reaches the peer once it appears (as a revived role does).
TEST(RetryTest, RequestReplyReachesAPeerThatAppearsBetweenAttempts) {
  BusCounters counters;
  MessageBus bus;
  auto client = bus.CreateEndpoint("client");
  RetryPolicy policy;
  policy.initial_timeout_ms = 50;
  policy.max_attempts = 6;
  std::unique_ptr<Endpoint> server;
  std::atomic<bool> returned{false};
  std::thread responder([&] {
    // Appear only after the first request was lost and its attempt timed out.
    while (counters("net.retry.timeouts") == 0) {
      if (returned) {
        return;  // the call gave up without waiting out an attempt
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server = bus.CreateEndpoint("server");
    auto m = server->ReceiveFor(10000);
    ASSERT_TRUE(m.has_value());
    server->Send(m->from, "rep", StringToBytes("served"));
  });
  auto reply = RequestReply(*client, "server", "req", {}, "rep", policy);
  returned = true;
  responder.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(BytesToString(reply->payload), "served");
  EXPECT_GE(counters("net.bus.dropped.req"), 1u);
  EXPECT_EQ(counters("net.retry.exhausted"), 0u);
}

TEST(RetryTest, BackoffIsCappedAndBounded) {
  RetryPolicy policy;
  policy.initial_timeout_ms = 100;
  policy.max_timeout_ms = 400;
  policy.max_attempts = 5;
  EXPECT_EQ(policy.TimeoutForAttempt(0), 100);
  EXPECT_EQ(policy.TimeoutForAttempt(1), 200);
  EXPECT_EQ(policy.TimeoutForAttempt(2), 400);
  EXPECT_EQ(policy.TimeoutForAttempt(3), 400);  // capped
  EXPECT_EQ(policy.TotalBudgetMs(), 100 + 200 + 400 + 400 + 400);
}

// --- secure channel hardening ---

TEST(SecureChannelTest, ReplayRejected) {
  crypto::SecureRng rng(StringToBytes("replay"));
  Bytes master = StringToBytes("master");
  SecureChannel sender(master, "chan:p:a", ChannelRole::kInitiator);
  SecureChannel receiver(master, "chan:p:a", ChannelRole::kResponder);
  Bytes frame = sender.Seal(StringToBytes("msg"), rng);
  EXPECT_TRUE(receiver.Open(frame).has_value());
  // Byte-identical replay: the sequence number is no longer fresh.
  EXPECT_FALSE(receiver.Open(frame).has_value());
}

TEST(SecureChannelTest, ReflectionRejected) {
  crypto::SecureRng rng(StringToBytes("reflect"));
  Bytes master = StringToBytes("master");
  SecureChannel initiator(master, "chan:p:a", ChannelRole::kInitiator);
  SecureChannel responder(master, "chan:p:a", ChannelRole::kResponder);
  // A frame bounced back at its own sender fails: the direction label in the
  // associated data does not match.
  Bytes frame = initiator.Seal(StringToBytes("msg"), rng);
  EXPECT_FALSE(initiator.Open(frame).has_value());
  Bytes back = responder.Seal(StringToBytes("msg"), rng);
  EXPECT_FALSE(responder.Open(back).has_value());
  // The legitimate directions still work.
  EXPECT_TRUE(responder.Open(frame).has_value());
  EXPECT_TRUE(initiator.Open(back).has_value());
}

TEST(SecureChannelTest, NonMonotonicSequenceRejected) {
  crypto::SecureRng rng(StringToBytes("mono"));
  Bytes master = StringToBytes("master");
  SecureChannel sender(master, "chan:p:a", ChannelRole::kInitiator);
  SecureChannel receiver(master, "chan:p:a", ChannelRole::kResponder);
  Bytes f1 = sender.Seal(StringToBytes("one"), rng);
  Bytes f2 = sender.Seal(StringToBytes("two"), rng);
  // Newest first: accepted and advances the window past the older frame.
  EXPECT_TRUE(receiver.Open(f2).has_value());
  EXPECT_FALSE(receiver.Open(f1).has_value());
}

TEST(SecureChannelTest, TruncatedFrameRejected) {
  crypto::SecureRng rng(StringToBytes("trunc"));
  SecureChannel sender(StringToBytes("k"), "chan:p:a", ChannelRole::kInitiator);
  SecureChannel receiver(StringToBytes("k"), "chan:p:a", ChannelRole::kResponder);
  Bytes frame = sender.Seal(StringToBytes("msg"), rng);
  EXPECT_FALSE(receiver.Open(Bytes(frame.begin(), frame.begin() + 4)).has_value());
  EXPECT_FALSE(receiver.Open({}).has_value());
}

// Crafts a tagged message sent through the transport directly (Endpoint::Send draws
// fresh tags, so duplicates and out-of-window tags need the raw Send path).
Message Tagged(const std::string& from, const std::string& to, const std::string& type,
               uint64_t seq, const std::string& payload = "") {
  Message m;
  m.from = from;
  m.to = to;
  m.type = type;
  m.seq = seq;
  m.payload = StringToBytes(payload);
  return m;
}

TEST(EndpointDedupTest, WindowStaysBoundedAndStillSuppressesAncientDuplicates) {
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  auto b = bus.CreateEndpoint("b");
  // Drive far more tagged traffic through one edge than the window retains. The old
  // unbounded seen-set grew one entry per message for the lifetime of the endpoint,
  // which at 10k-party scale is an O(rounds * parties) leak.
  const uint64_t kTotal = 1000;
  for (uint64_t i = 1; i <= kTotal; ++i) {
    bus.Send(Tagged("a", "b", "tick", i));
  }
  for (uint64_t i = 0; i < kTotal; ++i) {
    ASSERT_TRUE(b->ReceiveFor(1000).has_value()) << i;
  }
  EXPECT_LE(b->DedupTagsForTest(), 128u);

  // A duplicate far below the compacted horizon is still invisible: tags only grow, so
  // anything at or below the horizon can only be a stale retransmission.
  bus.Send(Tagged("a", "b", "tick", 5));
  EXPECT_FALSE(b->ReceiveFor(50).has_value());
  // A duplicate inside the retained window is suppressed too.
  bus.Send(Tagged("a", "b", "tick", kTotal));
  EXPECT_FALSE(b->ReceiveFor(50).has_value());
  // Fresh tags keep flowing, and untagged (seq 0) messages are never deduplicated.
  bus.Send(Tagged("a", "b", "tick", kTotal + 1));
  EXPECT_TRUE(b->ReceiveFor(1000).has_value());
  bus.Send(Tagged("a", "b", "untagged", 0));
  bus.Send(Tagged("a", "b", "untagged", 0));
  EXPECT_TRUE(b->ReceiveFor(1000).has_value());
  EXPECT_TRUE(b->ReceiveFor(1000).has_value());
}

TEST(EndpointStashTest, ReceiveMatchForStashesNonMatchesInOrderAcrossADuplicate) {
  MessageBus bus;
  auto rx = bus.CreateEndpoint("rx");
  // Delivery order: progress p1, a duplicate of p1, progress p2, a reply from the
  // *wrong* sender, then the reply the receiver is actually waiting on.
  bus.Send(Tagged("alice", "rx", "progress", 101, "p1"));
  bus.Send(Tagged("alice", "rx", "progress", 101, "p1"));
  bus.Send(Tagged("alice", "rx", "progress", 102, "p2"));
  bus.Send(Tagged("alice", "rx", "reply", 103, "not-bobs"));
  bus.Send(Tagged("bob", "rx", "reply", 201, "bobs"));

  // The selective receive skips past everything that doesn't match on (type, from) —
  // including the duplicate, which must be suppressed, not stashed twice.
  auto m = rx->ReceiveMatchFor("reply", "bob", 1000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(BytesToString(m->payload), "bobs");

  // Stashed non-matches come back to later receives in original delivery order.
  auto p1 = rx->ReceiveType("progress");
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(BytesToString(p1->payload), "p1");
  auto p2 = rx->ReceiveType("progress");
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(BytesToString(p2->payload), "p2");
  auto stale = rx->ReceiveType("reply");
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(BytesToString(stale->payload), "not-bobs");
  // The duplicate is gone for good: nothing further arrives.
  EXPECT_FALSE(rx->ReceiveFor(50).has_value());
}

TEST(MessageBusTest, UnknownTargetBumpsTelemetryCounter) {
  BusCounters counters;
  MessageBus bus;
  auto a = bus.CreateEndpoint("a");
  EXPECT_TRUE(a->Send("ghost", "x", {}));
  // The CI gate keys on this counter: in a fault-free run, routing to a name nobody
  // registered is a wiring bug or a peer that is gone.
  EXPECT_EQ(counters("net.bus.dropped"), 1u);
  FaultPlan plan;
  plan.seed = 7;
  plan.default_rates.drop = 1.0;
  bus.SetFaultPlan(plan);
  auto b = bus.CreateEndpoint("b");
  EXPECT_TRUE(a->Send("b", "x", {}));
  // Fault loss is not an unknown target.
  EXPECT_EQ(counters("net.bus.dropped"), 1u);
  EXPECT_EQ(counters("net.bus.fault_dropped"), 1u);
}

}  // namespace
}  // namespace deta::net
