// TCP transport backend: the same Transport contract as the in-process MessageBus, but
// over real non-blocking sockets, so parties / aggregators / the key broker can run as
// separate OS processes (examples/deta_cluster.cpp) while protocol code stays unchanged.
//
// Shape:
//   * One epoll event loop per transport instance, on a deta::ServiceThread. All
//     sockets are non-blocking; epoll_wait runs with a bounded tick (DL-L1).
//   * Wire format: length-prefixed frames (u32 little-endian byte count, then a
//     net/codec.h body of at most 256 MiB; a larger frame drops the connection).
//     Frame kinds: data message, register/unregister, resolve and resolve-reply (the
//     name registry).
//   * Name registry: exactly one node in a cluster hosts the registry (it leaves
//     TcpTransportOptions::registry_addr empty); every other node dials it. Endpoints
//     register their logical name plus this node's listen address; a send to an
//     unresolved name parks the message (at most 1,024 per name, oldest dropped
//     first) and asks the registry. A resolve for a name nobody registered yet parks
//     *at the registry* until the name appears — the registry is the cluster's
//     rendezvous point, so process startup order does not matter.
//   * Per-peer connection multiplexing: all endpoints on a node share one outbound
//     connection per peer node (per-edge FIFO follows from per-connection FIFO), with
//     reconnect-on-failure — a broken connection drops whatever was queued on it
//     (indistinguishable from network loss; net/retry.h recovers) and the next send
//     re-resolves and re-dials. Messages to a name hosted on this very node still
//     travel through the loopback socket: every delivery crosses a real TCP stream, so
//     single-node tests exercise the same code path as a cluster.
//   * The send pipeline (fault decisions, the reorder holdback, every net.bus.*
//     counter) and the local endpoint table are Transport's (net/transport.h), shared
//     with the in-process bus. This backend supplies Route — resolve, park, frame,
//     queue — and keeps the registry in step with the local table. An unreachable
//     peer looks exactly like network loss, as a missing endpoint does on the bus, and
//     net/retry.h bounds the damage.
//
// Determinism note: socket readiness order is not deterministic, so *timing* over TCP
// is not reproducible the way the in-process bus is. The protocol layer never depends
// on cross-edge ordering (only per-edge FIFO, which TCP preserves), which is why final
// model parameters stay bitwise-identical across backends (tests/net_transport_
// conformance_test.cc).
#ifndef DETA_NET_TCP_TRANSPORT_H_
#define DETA_NET_TCP_TRANSPORT_H_

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace deta::net {

struct TcpTransportOptions {
  // Address this node listens on. Port 0 binds an ephemeral port; read the actual one
  // back with listen_port(). Numeric IPv4 only (no name resolution — deterministic and
  // dependency-free).
  std::string listen_host = "127.0.0.1";
  int listen_port = 0;
  // "host:port" of the registry node. Empty = this node hosts the registry.
  std::string registry_addr;
  // Node tag for log lines only.
  std::string node_name = "node";
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportOptions options);
  ~TcpTransport() override;

  // The port actually bound (useful with listen_port = 0).
  int listen_port() const { return bound_port_; }
  // "host:port" other nodes should use to reach this node's registry (only meaningful
  // on the registry node).
  std::string registry_address() const;

 private:
  struct OutFrame {
    Bytes wire;        // length prefix + body
    bool is_data;      // a kFrameMsg (counts as a drop if the connection dies first)
    std::string type;  // message type of data frames, for per-type loss accounting
  };
  struct Conn {
    int fd = -1;
    bool connected = false;        // outbound: three-way handshake finished
    bool peer_retired = false;     // peer sent GOODBYE: it is exiting on purpose
    std::string peer_addr;         // outbound connections only ("host:port")
    Bytes inbuf;
    std::deque<OutFrame> outq;
    size_t out_offset = 0;         // bytes of outq.front() already written
  };

  void Loop();
  // --- event handling (loop thread) ---
  void HandleAccept() DETA_REQUIRES(mutex_);
  void HandleReadable(int fd) DETA_REQUIRES(mutex_);
  void HandleWritable(int fd) DETA_REQUIRES(mutex_);
  void HandleFrame(int fd, const Bytes& body) DETA_REQUIRES(mutex_);
  void CloseConn(int fd, const char* why) DETA_REQUIRES(mutex_);
  // Closes a connection over an oversized, unknown-kind or unparseable frame, counted.
  void CloseMalformed(int fd, const char* why) DETA_REQUIRES(mutex_);
  // --- Transport hooks ---
  void Route(Message message) override DETA_REQUIRES(mutex_);
  void Registered(const std::string& name) override;
  void Unregistered(const std::string& name) override;
  // --- routing (any thread, under mutex_) ---
  void RouteResolved(Message message, const std::string& addr) DETA_REQUIRES(mutex_);
  void ResolveName(const std::string& name) DETA_REQUIRES(mutex_);
  void CompleteResolve(const std::string& name, const std::string& addr)
      DETA_REQUIRES(mutex_);
  // Registry-side bookkeeping (direct calls on the registry node, frames elsewhere).
  void RegistryAdd(const std::string& name, const std::string& addr)
      DETA_REQUIRES(mutex_);
  void RegistryRemove(const std::string& name) DETA_REQUIRES(mutex_);
  void QueueFrame(int fd, OutFrame frame) DETA_REQUIRES(mutex_);
  // Returns the fd of a live/connecting outbound connection to |addr|, or -1.
  int GetOrConnect(const std::string& addr) DETA_REQUIRES(mutex_);
  bool EnsureRegistryConn() DETA_REQUIRES(mutex_);
  void UpdateEpollInterest(int fd) DETA_REQUIRES(mutex_);

  TcpTransportOptions options_;
  std::string self_addr_;  // "host:port" with the actually-bound port
  int bound_port_ = 0;
  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: kicks the loop on shutdown
  std::atomic<bool> stop_{false};

  // Connection, resolution and registry state is guarded by Transport::mutex_, so a
  // send's fault decision and its routing are one step and senders and the event loop
  // share one lock (DESIGN.md "One send pipeline").
  std::map<int, Conn> conns_ DETA_GUARDED_BY(mutex_);
  std::map<std::string, int> addr_to_fd_ DETA_GUARDED_BY(mutex_);
  int registry_fd_ DETA_GUARDED_BY(mutex_) = -1;
  // Client-side resolution state.
  std::map<std::string, std::string> name_cache_ DETA_GUARDED_BY(mutex_);
  std::set<std::string> resolve_inflight_ DETA_GUARDED_BY(mutex_);
  // Listen addresses of peers that announced a graceful exit (GOODBYE). Sends routed
  // here after the announcement are retired, not dropped: the peer chose to leave and
  // will never read them. Bounded by the number of processes ever in the deployment —
  // a revived role binds a fresh ephemeral port, so its old entry stays stale-but-true.
  std::set<std::string> retired_addrs_ DETA_GUARDED_BY(mutex_);
  std::map<std::string, std::deque<Message>> parked_ DETA_GUARDED_BY(mutex_);
  // Registry state (registry node only). Parked resolve requests map the wanted name
  // to requesting connection fds; -1 marks a request from this very node.
  std::map<std::string, std::string> registry_names_ DETA_GUARDED_BY(mutex_);
  std::map<std::string, std::set<int>> registry_waiters_ DETA_GUARDED_BY(mutex_);

  ServiceThread loop_thread_;  // last member: joins before the state above dies
};

}  // namespace deta::net

#endif  // DETA_NET_TCP_TRANSPORT_H_
