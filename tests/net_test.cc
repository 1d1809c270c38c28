#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
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
  const Bytes whole = w.Take();
  const Bytes wire(whole.begin(), whole.end() - 2);  // drops the payload's last 2 bytes
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

// A raw client of a TcpTransport's listen port: a peer node's socket, driven by hand so a
// test decides how the bytes of its frames split across reads.
int ConnectRaw(const TcpTransport& tcp) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  timeval timeout{10, 0};  // a node that never answers fails the test, not hangs it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(tcp.listen_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SendAll(int fd, const Bytes& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

// A whole data frame as a peer node writes it: the head, then the payload.
Bytes RawDataFrame(const std::string& to, uint64_t seq, const Bytes& payload) {
  Message m;
  m.from = "raw";
  m.to = to;
  m.type = "raw.data";
  m.seq = seq;
  m.payload = payload;
  Bytes frame = DataFrameHead(m);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

Bytes Pattern(size_t size, uint64_t seed) {
  Bytes out(size);
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  return out;
}

// A frame that does not parse closes its connection, as an oversized or unknown-kind
// frame does, and the node keeps delivering. A good frame ahead of it in the same read
// is delivered first: frames are dispatched in order as they are parsed.
TEST(TcpTransportTest, MalformedFrameClosesItsConnectionNotTheNode) {
  BusCounters counters;
  TcpTransport tcp{TcpTransportOptions{}};
  auto a = tcp.CreateEndpoint("a");
  auto b = tcp.CreateEndpoint("b");
  int fd = ConnectRaw(tcp);
  ASSERT_GE(fd, 0);
  // A good frame, then body length 4, kind 1 (a message frame), and none of a message's
  // fields, in one send.
  Bytes bytes = RawDataFrame("b", 1, StringToBytes("before the bad frame"));
  const uint8_t malformed[] = {4, 0, 0, 0, 1, 0, 0, 0};
  bytes.insert(bytes.end(), std::begin(malformed), std::end(malformed));
  SendAll(fd, bytes);
  char byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // the node closed the connection
  ::close(fd);
  EXPECT_EQ(counters("net.bus.malformed_frames"), 1u);
  std::optional<Message> good = b->ReceiveFor(5000);
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->from, "raw");
  EXPECT_EQ(BytesToString(good->payload), "before the bad frame");

  ASSERT_TRUE(a->Send("b", "after", StringToBytes("still up")));
  std::optional<Message> m = b->ReceiveFor(5000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(BytesToString(m->payload), "still up");
}

// A payload far larger than a socket buffer crosses the node in many reads into one
// receive buffer and is delivered intact, and the stream carries on behind it.
TEST(TcpTransportTest, LargePayloadArrivesIntactAcrossManyReads) {
  TcpTransport tcp{TcpTransportOptions{}};
  auto a = tcp.CreateEndpoint("a");
  auto b = tcp.CreateEndpoint("b");
  const Bytes payload = Pattern(32u << 20, 1);
  ASSERT_TRUE(a->Send("b", "bulk", payload));
  ASSERT_TRUE(a->Send("b", "tail", StringToBytes("behind it")));
  std::optional<Message> bulk = b->ReceiveFor(30000);
  ASSERT_TRUE(bulk.has_value());
  EXPECT_EQ(bulk->type, "bulk");
  EXPECT_TRUE(bulk->payload == payload);
  std::optional<Message> tail = b->ReceiveFor(5000);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(BytesToString(tail->payload), "behind it");
}

// Two whole frames and the head of a third in one read, the third's rest later: the
// whole ones are parsed where they lie, the partial one waits in the buffer for its rest.
TEST(TcpTransportTest, CoalescedFramesAndASplitTailAreDeliveredInOrder) {
  TcpTransport tcp{TcpTransportOptions{}};
  auto b = tcp.CreateEndpoint("b");
  int fd = ConnectRaw(tcp);
  ASSERT_GE(fd, 0);
  const Bytes first = Pattern(3000, 2);
  const Bytes second = Pattern(17, 3);
  const Bytes third = Pattern(200000, 4);
  Bytes bytes = RawDataFrame("b", 1, first);
  Bytes more = RawDataFrame("b", 2, second);
  bytes.insert(bytes.end(), more.begin(), more.end());
  Bytes last = RawDataFrame("b", 3, third);
  const size_t split = 100;  // inside the third frame's payload
  bytes.insert(bytes.end(), last.begin(), last.begin() + split);
  SendAll(fd, bytes);
  for (const Bytes* expected : {&first, &second}) {
    std::optional<Message> m = b->ReceiveFor(5000);
    ASSERT_TRUE(m.has_value());
    EXPECT_TRUE(m->payload == *expected);
  }
  EXPECT_FALSE(b->ReceiveFor(100).has_value());  // the third is still in flight
  SendAll(fd, Bytes(last.begin() + split, last.end()));
  std::optional<Message> m = b->ReceiveFor(5000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->seq, 3u);
  EXPECT_TRUE(m->payload == third);
  ::close(fd);
}

// A frame written one byte at a time splits its length prefix and every header field at
// every boundary; each frame is still delivered whole.
TEST(TcpTransportTest, FrameWrittenOneByteAtATimeIsParsed) {
  TcpTransport tcp{TcpTransportOptions{}};
  auto b = tcp.CreateEndpoint("b");
  int fd = ConnectRaw(tcp);
  ASSERT_GE(fd, 0);
  for (uint64_t seq : {1, 2}) {
    const Bytes payload = Pattern(24, seq);
    for (uint8_t byte : RawDataFrame("b", seq, payload)) {
      ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::optional<Message> m = b->ReceiveFor(5000);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->from, "raw");
    EXPECT_EQ(m->type, "raw.data");
    EXPECT_EQ(m->seq, seq);
    EXPECT_EQ(m->payload, payload);
  }
  ::close(fd);
}

// Once a connection's buffer has grown past one frame, a read must still stop one
// receive chunk (64 KiB) past the end of the frame it is receiving: a read that took in
// the frames behind it would have them moved to the front of the buffer when the next
// frame's room is made, megabytes at a time. A burst of back-to-back frames of mixed
// sizes, sent behind a 3 MiB frame that grew the buffer, arrives intact and in order,
// and no move or grow copies more than a chunk (net.tcp.recv_moved_bytes).
TEST(TcpTransportTest, ABurstBehindAGrownBufferIsMovedAtMostAChunkAtATime) {
  TcpTransport tcp{TcpTransportOptions{}};
  auto b = tcp.CreateEndpoint("b");
  int fd = ConnectRaw(tcp);
  ASSERT_GE(fd, 0);
  const Bytes grow = Pattern(3u << 20, 20);
  SendAll(fd, RawDataFrame("b", 1, grow));
  std::optional<Message> first = b->ReceiveFor(10000);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->payload == grow);
  const telemetry::TelemetrySnapshot before = telemetry::Snapshot();
  const std::vector<size_t> sizes = {1500000, 17, 300000, 70000, 5,      900000,
                                     65536,   1,  2000000, 40000, 700000, 3};
  Bytes burst;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const Bytes frame = RawDataFrame("b", i + 2, Pattern(sizes[i], i + 2));
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  SendAll(fd, burst);
  for (size_t i = 0; i < sizes.size(); ++i) {
    std::optional<Message> m = b->ReceiveFor(10000);
    ASSERT_TRUE(m.has_value()) << "frame " << i;
    EXPECT_EQ(m->seq, i + 2);
    EXPECT_TRUE(m->payload == Pattern(sizes[i], i + 2)) << "frame " << i;
  }
  ::close(fd);
  const telemetry::TelemetrySnapshot after =
      telemetry::Delta(before, telemetry::Snapshot());
  auto moved = after.histograms.find("net.tcp.recv_moved_bytes");
  if (moved != after.histograms.end()) {
    // Bucket b holds [2^(b-31), 2^(b-30)), so a move of at most 2^16 bytes is in 47 or
    // below.
    constexpr int kChunkBucket = 16 + 31;
    for (const auto& [bucket, count] : moved->second.buckets) {
      EXPECT_TRUE(count == 0 || bucket <= kChunkBucket)
          << count << " moves of at least 2^" << bucket - 31 << " bytes";
    }
    EXPECT_LE(moved->second.sum, static_cast<double>(moved->second.count) * 65536.0);
  }
}

// The largest length prefix a node accepts, 256 MiB, as a peer writes it.
const Bytes kLargestClaim = {0x00, 0x00, 0x00, 0x10};

// A peer may claim a frame as large as the protocol allows and then stall. The node makes
// room for the claim without touching it and keeps delivering everyone else's traffic;
// the claim is legal, so nothing counts as malformed, and the peer's close is clean.
TEST(TcpTransportTest, AStalledLargestFrameClaimDoesNotHoldUpTheNode) {
  BusCounters counters;
  TcpTransport tcp{TcpTransportOptions{}};
  auto a = tcp.CreateEndpoint("a");
  auto b = tcp.CreateEndpoint("b");
  int fd = ConnectRaw(tcp);
  ASSERT_GE(fd, 0);
  Bytes bytes = kLargestClaim;
  const Bytes head = RawDataFrame("b", 1, {});
  bytes.insert(bytes.end(), head.begin() + 4, head.end());  // the body's first bytes
  SendAll(fd, bytes);
  auto expect_delivered = [&](const std::string& text) {
    ASSERT_TRUE(a->Send("b", "meanwhile", StringToBytes(text)));
    std::optional<Message> m = b->ReceiveFor(5000);
    ASSERT_TRUE(m.has_value()) << text;
    EXPECT_EQ(BytesToString(m->payload), text);
  };
  expect_delivered("while it stalls");
  ::close(fd);
  expect_delivered("after it left");
  EXPECT_EQ(counters("net.bus.malformed_frames"), 0u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// The largest claim on a node whose address space is capped just above what it has
// mapped: 0 when the claim's connection closes as a malformed frame's does and the node
// still delivers, else the number of the step that failed.
int ClaimBeyondTheAddressSpace() {
  BusCounters counters;
  TcpTransport tcp{TcpTransportOptions{}};
  auto a = tcp.CreateEndpoint("a");
  auto b = tcp.CreateEndpoint("b");
  // Traffic first, so the loop thread and its allocator arena are mapped before the cap.
  if (!a->Send("b", "warm", StringToBytes("up")) || !b->ReceiveFor(5000).has_value()) {
    return 1;
  }
  int fd = ConnectRaw(tcp);
  size_t mapped_pages = 0;
  std::ifstream("/proc/self/statm") >> mapped_pages;
  if (fd < 0 || mapped_pages == 0) {
    return 2;
  }
  const rlim_t cap = mapped_pages * static_cast<rlim_t>(::sysconf(_SC_PAGESIZE)) + (64 << 20);
  const rlimit limit{cap, cap};
  if (::setrlimit(RLIMIT_AS, &limit) != 0 ||
      ::send(fd, kLargestClaim.data(), kLargestClaim.size(), MSG_NOSIGNAL) != 4) {
    return 3;
  }
  char byte;
  if (::recv(fd, &byte, 1, 0) != 0) {
    return 4;  // the node did not close the connection
  }
  ::close(fd);
  if (counters("net.bus.malformed_frames") != 1) {
    return 5;
  }
  if (!a->Send("b", "after", StringToBytes("still up"))) {
    return 6;
  }
  std::optional<Message> m = b->ReceiveFor(5000);
  return m.has_value() && BytesToString(m->payload) == "still up" ? 0 : 7;
}

// Room for a claimed frame that cannot be allocated closes the claim's connection, not
// the node. Sanitizers map their shadow memory under the same cap, so they skip it.
TEST(TcpTransportDeathTest, AFrameTooLargeToBufferClosesItsConnectionNotTheNode) {
  if (kSanitized) {
    GTEST_SKIP() << "an address-space cap also starves the sanitizer's allocator";
  }
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(std::exit(ClaimBeyondTheAddressSpace()), ::testing::ExitedWithCode(0), "");
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

// The headroom seal writes the bytes the copying form does behind the same header, so
// the round protocol's wire format is pinned: u32 round || u64 length || frame, under
// cloned RNGs and channels.
TEST(SecureChannelTest, HeadroomSealMatchesTheBytesForm) {
  const Bytes master = StringToBytes("master");
  crypto::SecureRng pattern(StringToBytes("plaintext"));
  const Bytes plaintext = pattern.NextBytes(40000);
  SecureChannel in_place(master, "chan:p:a", ChannelRole::kInitiator);
  SecureChannel copying(master, "chan:p:a", ChannelRole::kInitiator);
  crypto::SecureRng rng_a(StringToBytes("clone"));
  crypto::SecureRng rng_b(StringToBytes("clone"));
  for (uint32_t round : {1u, 2u}) {
    Writer message;
    message.WriteU32(round);
    message.WriteU64(SecureChannel::kOverhead + plaintext.size());
    in_place.Seal(message, [&](Writer& w) { w.WriteRaw(plaintext); }, rng_a);
    Writer expected;
    expected.WriteU32(round);
    expected.WriteBytes(copying.Seal(plaintext, rng_b));
    EXPECT_EQ(message.buffer(), expected.buffer()) << "round " << round;
  }
}

// OpenInPlace returns the plaintext's span inside the received frame. A flipped tag bit,
// a reflected frame and a replayed sequence number are rejected, and none leaves
// plaintext in the buffer: a frame decrypted before its tag failed is wiped.
TEST(SecureChannelTest, OpenInPlaceRejectsAndLeavesNoPlaintext) {
  crypto::SecureRng rng(StringToBytes("in-place"));
  const Bytes master = StringToBytes("master");
  SecureChannel sender(master, "chan:p:a", ChannelRole::kInitiator);
  SecureChannel receiver(master, "chan:p:a", ChannelRole::kResponder);
  const Bytes plaintext = rng.NextBytes(100000);  // several 16 KiB chunks
  const Bytes frame = sender.Seal(plaintext, rng);
  auto holds_plaintext = [&](const Bytes& f) {
    return std::search(f.begin(), f.end(), plaintext.begin(), plaintext.begin() + 32) !=
           f.end();
  };
  auto body_wiped = [](const Bytes& f) {
    return std::all_of(f.begin() + SecureChannel::kHeaderSize,
                       f.end() - crypto::kAeadTagSize, [](uint8_t b) { return b == 0; });
  };

  Bytes flipped = frame;
  flipped.back() ^= 0x01;  // a tag bit
  EXPECT_FALSE(receiver.OpenInPlace(flipped).has_value());
  EXPECT_TRUE(body_wiped(flipped));
  // The sender's own frame bounced back: same key, wrong direction in the AD.
  Bytes reflected = frame;
  EXPECT_FALSE(sender.OpenInPlace(reflected).has_value());
  EXPECT_TRUE(body_wiped(reflected));

  Bytes good = frame;
  std::optional<std::span<uint8_t>> opened = receiver.OpenInPlace(good);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(opened->data(), good.data() + SecureChannel::kHeaderSize);
  EXPECT_TRUE(std::equal(opened->begin(), opened->end(), plaintext.begin(), plaintext.end()));

  // Rejected on its sequence number, before any byte is decrypted.
  Bytes replayed = frame;
  EXPECT_FALSE(receiver.OpenInPlace(replayed).has_value());
  EXPECT_EQ(replayed, frame);
  EXPECT_FALSE(holds_plaintext(replayed) || holds_plaintext(flipped) ||
               holds_plaintext(reflected));
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
