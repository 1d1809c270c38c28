// Microbenchmarks for the transport layer: message round-trip latency over both
// backends (the in-proc bus and real TCP loopback sockets), the data-frame head encode
// and in-place parse every TCP delivery pays, and the whole sealed upload hop. The
// round-trip rows are the per-message floor under the scale harness's throughput
// numbers; the TCP row minus the in-proc row is what the wire itself costs.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_main.h"

#include "common/rng.h"
#include "core/deta_aggregator.h"
#include "crypto/chacha20.h"
#include "net/codec.h"
#include "net/message_bus.h"
#include "net/secure_channel.h"
#include "net/tcp_transport.h"

namespace {

using namespace deta;

Bytes Payload(size_t size) {
  Rng rng(7);
  Bytes payload(size);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  return payload;
}

// One full round trip: a -> b, b receives, b -> a, a receives. Both directions cross
// the backend's delivery path (for TCP: framing, epoll loop, loopback socket).
void RoundTrip(benchmark::State& state, net::Transport& transport) {
  auto a = transport.CreateEndpoint("bench-a");
  auto b = transport.CreateEndpoint("bench-b");
  Bytes payload = Payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    a->Send("bench-b", "ping", payload);
    auto ping = b->Receive();
    if (!ping.has_value()) {
      state.SkipWithError("ping lost");
      return;
    }
    b->Send("bench-a", "pong", std::move(ping->payload));
    auto pong = a->Receive();
    if (!pong.has_value()) {
      state.SkipWithError("pong lost");
      return;
    }
    benchmark::DoNotOptimize(pong->payload);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(payload.size()));
}

void BM_InProcRoundTrip(benchmark::State& state) {
  net::MessageBus bus;
  RoundTrip(state, bus);
}
BENCHMARK(BM_InProcRoundTrip)->Arg(64)->Arg(4 << 10)->Arg(256 << 10);

void BM_TcpRoundTrip(benchmark::State& state) {
  net::TcpTransportOptions options;
  options.node_name = "bench";
  net::TcpTransport transport(options);
  RoundTrip(state, transport);
}
BENCHMARK(BM_TcpRoundTrip)->Arg(64)->Arg(4 << 10)->Arg(256 << 10);

net::Message DataMessage(Bytes payload) {
  net::Message m;
  m.from = "party4095";
  m.to = "aggregator2";
  m.type = "round.upload";
  m.seq = 123456789;
  m.payload = std::move(payload);
  return m;
}

// The head a TCP send builds under the transport lock: length prefix, kind, names,
// type, seq and the payload's length. The payload leaves from its own buffer in the same
// sendmsg, so the cost does not grow with it; bytes processed count the payload sent.
void BM_FrameEncode(benchmark::State& state) {
  const net::Message m = DataMessage(Payload(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    Bytes head = net::DataFrameHead(m);
    benchmark::DoNotOptimize(head);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m.payload.size()));
}
BENCHMARK(BM_FrameEncode)->Arg(64)->Arg(4 << 10)->Arg(256 << 10);

// The receive side's parse of a frame body where it lies in the connection buffer: the
// header fields, then the payload's one copy into the delivered Message.
void BM_FrameDecode(benchmark::State& state) {
  net::Message m = DataMessage(Payload(static_cast<size_t>(state.range(0))));
  Bytes wire = net::DataFrameHead(m);
  wire.insert(wire.end(), m.payload.begin(), m.payload.end());
  const std::span<const uint8_t> body = std::span<const uint8_t>(wire).subspan(4);
  for (auto _ : state) {
    net::Message parsed = net::ParseDataFrame(body);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(state.range(0)));
}
BENCHMARK(BM_FrameDecode)->Arg(64)->Arg(4 << 10)->Arg(256 << 10);

// One sealed upload hop as a party and an aggregator run it over TCP loopback: seal the
// plaintext into a round message with headroom (its one copy on the sending side), send,
// receive (the transport's one copy), open in place. 2,714,028 bytes is one
// bulk_update_tcp fragment.
void BM_SealedHop(benchmark::State& state) {
  net::TcpTransportOptions options;
  options.node_name = "bench";
  net::TcpTransport transport(options);
  auto party = transport.CreateEndpoint("bench-party");
  auto aggregator = transport.CreateEndpoint("bench-aggregator");
  const Bytes master = Payload(32);
  net::SecureChannel sender(master, "chan:bench", net::ChannelRole::kInitiator);
  net::SecureChannel receiver(master, "chan:bench", net::ChannelRole::kResponder);
  crypto::SecureRng rng(StringToBytes("bench-sealed-hop"));
  const Bytes plaintext = Payload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    party->Send("bench-aggregator", "round.upload",
                core::SealRoundMessage(sender, 1, plaintext, rng));
    std::optional<net::Message> m = aggregator->Receive();
    if (!m.has_value()) {
      state.SkipWithError("upload lost");
      return;
    }
    std::optional<std::span<uint8_t>> opened = core::OpenRoundMessage(receiver, m->payload);
    if (!opened.has_value() || opened->size() != plaintext.size()) {
      state.SkipWithError("upload did not open");
      return;
    }
    benchmark::DoNotOptimize(opened->data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(plaintext.size()));
}
BENCHMARK(BM_SealedHop)->Arg(256 << 10)->Arg(2714028);

}  // namespace

DETA_BENCH_MAIN()
