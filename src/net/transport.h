// Pluggable message transport: the one send pipeline and local endpoint table both
// backends share, and the transport-agnostic Endpoint protocol code receives on.
//
// Two backends exist:
//   * MessageBus (net/message_bus.h) — the in-process backend. Every name is local, so
//     routing is a push into the target's mailbox.
//   * TcpTransport (net/tcp_transport.h) — real non-blocking sockets behind an epoll
//     loop, length-prefixed frames (net/codec.h), and a name registry so roles still
//     address each other by logical name.
//
// Everything the two do alike lives here, once:
//   * Endpoint: blocking/bounded receives, selective receive with a stash, duplicate
//     suppression.
//   * Transport::Send, the send pipeline: count the send, decide its faults
//     (net/fault.h), sleep out a delay outside every lock, then apply the one-slot
//     reorder holdback, drop and duplicate, and hand each surviving copy to the
//     backend's Route.
//   * The local endpoint table with its mailbox delivery, the sequence counter, and every
//     net.bus.* counter with one per-topic cache.
// Faults are therefore decided on the sending side by the same code over either wire: a
// given (seed, edge, send index) faults identically in both backends. The reliability
// contract (messages arrive zero, one, or two times; retransmissions carry fresh tags;
// receivers dedup on (sender, tag)) is a property of this layer, not of any wire. So is
// the loss model: a send never fails, and a message to a peer that is gone (never
// created, closed, or crashed and not yet revived) is lost like a dropped one.
//
// Lock order: Transport::mutex_ (fault state, reorder holdback, and TcpTransport's
// routing state), then table_mutex_ (the endpoint table and the topic counter cache, a
// leaf). A send holds mutex_ across Route, which moves the payload and copies none of
// it (a duplicate's copy is made before the lock); TcpTransport's event loop takes it to
// write, accept, close and handle control frames, and delivers data frames without it.
#ifndef DETA_NET_TRANSPORT_H_
#define DETA_NET_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/thread_annotations.h"
#include "net/fault.h"

namespace deta::telemetry {
class Counter;
}  // namespace deta::telemetry

namespace deta::net {

struct Message {
  std::string from;
  std::string to;
  std::string type;  // protocol message kind, e.g. "upload_update"
  Bytes payload;
  // Per-sender sequence tag for duplicate suppression; 0 = untagged (never deduped).
  uint64_t seq = 0;

  size_t WireSize() const {
    return from.size() + to.size() + type.size() + payload.size() + sizeof(seq);
  }
};

class Transport;

// Receiving handle for one named endpoint. Created via Transport::CreateEndpoint;
// closed automatically when destroyed. Not thread-safe: one owner thread receives.
class Endpoint {
 public:
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& name() const { return name_; }

  // Blocks until a message arrives or the endpoint closes; nullopt on close.
  std::optional<Message> Receive();
  // Bounded variant: nullopt after |timeout_ms| with no message. Use closed() to tell a
  // timeout from a closed endpoint.
  std::optional<Message> ReceiveFor(int timeout_ms);
  // Blocks until a message of |type| arrives, queueing others aside (simple selective
  // receive; keeps protocol code linear).
  std::optional<Message> ReceiveType(const std::string& type);
  // Like ReceiveType but gives up after |timeout_ms| (nullopt on timeout/close). Lets
  // protocol code survive dead peers instead of blocking forever.
  std::optional<Message> ReceiveTypeFor(const std::string& type, int timeout_ms);
  // Like ReceiveTypeFor but additionally matches the sender, so a delayed or duplicated
  // reply from peer A cannot be mistaken for peer B's reply. Non-matching messages are
  // stashed for later receives.
  std::optional<Message> ReceiveMatchFor(const std::string& type, const std::string& from,
                                         int timeout_ms);
  // Routes a message, fire-and-forget: on either backend a message to a missing, closed
  // or crashed peer is lost the way a fault-injected one is, and only a retransmission
  // recovers it (net/retry.h). Always returns true; the bool stays only because
  // perfbench's replay checks it.
  bool Send(const std::string& to, const std::string& type, Bytes payload);
  void Close();
  // True once Close() ran (or the destructor did). Distinguishes "timed out" from
  // "endpoint closed" after a nullopt ReceiveFor/ReceiveTypeFor.
  bool closed() const { return mailbox_.closed(); }
  // Test hook: total dedup tags currently retained across all senders. The sliding
  // window keeps this bounded by kDedupWindow per sender no matter how much traffic an
  // edge carries (the regression the hook exists to pin).
  size_t DedupTagsForTest() const;

 private:
  friend class Transport;

  // Per-sender sliding dedup window. Tags at or below |horizon| are treated as already
  // seen; |recent| holds at most kDedupWindow tags above it. Sequence tags from one
  // sender only ever grow (transport-wide counters, never reused across a revive), and
  // the transports displace a message by at most one slot (reorder faults hold back a
  // single message per edge; duplicates arrive back-to-back), so a small window
  // suppresses every real duplicate while keeping memory bounded at 10k-party scale.
  struct SeenWindow {
    uint64_t horizon = 0;
    std::set<uint64_t> recent;
  };
  static constexpr size_t kDedupWindow = 128;

  Endpoint(std::string name, Transport* transport);
  // Pops one message with duplicate suppression; nullopt on timeout (timeout_ms >= 0
  // exhausted) or close.
  std::optional<Message> PopDeduped(int timeout_ms);
  bool AlreadySeen(const Message& m);

  std::string name_;
  Transport* transport_;
  BlockingQueue<Message> mailbox_;
  std::vector<Message> stashed_;  // out-of-order messages set aside by ReceiveType*
  // Receiver-thread-only dedup state: sender -> recently delivered sequence tags.
  std::map<std::string, SeenWindow> seen_;
};

// The shared send pipeline plus the local endpoint table. A backend derives from it and
// supplies Route, plus what it alone knows about names (Registered, Unregistered).
class Transport {
 public:
  virtual ~Transport() = default;

  // Creates (registers) an endpoint. Name must be unique among live endpoints on this
  // transport (and, for TCP, across the whole cluster).
  std::unique_ptr<Endpoint> CreateEndpoint(const std::string& name)
      DETA_EXCLUDES(table_mutex_);

  // The send pipeline (see the file comment). Callers should normally go through
  // Endpoint::Send, which tags the message from NextSeq().
  void Send(Message message) DETA_EXCLUDES(mutex_);

  // Installs a fault plan. Call before traffic starts; replaces any previous plan and
  // resets the per-edge fault schedule and the reorder holdback.
  void SetFaultPlan(FaultPlan plan) DETA_EXCLUDES(mutex_);

 protected:
  // Carries one message toward its target: called under mutex_, once for every
  // copy the fault plan lets through, in per-edge send order.
  virtual void Route(Message message) DETA_REQUIRES(mutex_) = 0;
  // Called after |name| joins, and after it leaves, the local endpoint table.
  virtual void Registered(const std::string& name);
  virtual void Unregistered(const std::string& name);

  // Pushes into the named local endpoint's mailbox and counts net.bus.delivered; counts
  // net.bus.dropped when no open local endpoint has that name.
  void DeliverLocal(Message message) DETA_EXCLUDES(table_mutex_);
  bool HasOpenEndpoint(const std::string& name) DETA_EXCLUDES(table_mutex_);
  std::vector<std::string> LocalNames() DETA_EXCLUDES(table_mutex_);
  // Traffic lost after Send routed it: net.bus.dropped is network loss, which the
  // must-be-zero gate watches; net.bus.retired is tail traffic to a peer that left on
  // purpose (TCP's GOODBYE), which is clean.
  void CountDropped(const std::string& type);
  void CountRetired(const std::string& type);

  // Lock order: mutex_, then table_mutex_. mutex_ guards the fault state and the reorder
  // holdback; a backend with routing state of its own guards it with mutex_ too, so
  // routing is atomic with the fault decision (TcpTransport's event loop takes it for
  // every socket event but the delivery of a data frame).
  Mutex mutex_;

 private:
  friend class Endpoint;
  // Draws the next sequence tag. Transport-wide (not per endpoint): receivers dedup on
  // (sender name, tag), and a crashed role revived under the same name must never reuse
  // a tag its previous incarnation already sent.
  uint64_t NextSeq() { return next_seq_.fetch_add(1, std::memory_order_relaxed); }
  // Called from the Endpoint destructor.
  void Unregister(const std::string& name) DETA_EXCLUDES(table_mutex_);
  // The counter "<kind>.<topic prefix>", where the topic prefix is the message type up
  // to its first '.', so gates and experiments read per-protocol-phase traffic.
  telemetry::Counter& TopicCounter(const char* kind, const std::string& type)
      DETA_REQUIRES(table_mutex_);
  void CountTopic(const char* kind, const std::string& type) DETA_EXCLUDES(table_mutex_);

  std::atomic<uint64_t> next_seq_{1};
  std::unique_ptr<FaultInjector> injector_ DETA_GUARDED_BY(mutex_);
  // Reorder holdback: at most one in-flight message per edge, released right after the
  // edge's next send (so a held message is delivered out of order but never starved).
  std::map<std::pair<std::string, std::string>, Message> held_ DETA_GUARDED_BY(mutex_);
  Mutex table_mutex_ DETA_ACQUIRED_AFTER(mutex_);
  std::map<std::string, Endpoint*> endpoints_ DETA_GUARDED_BY(table_mutex_);
  std::map<std::string, telemetry::Counter*> topic_counters_
      DETA_GUARDED_BY(table_mutex_);
};

}  // namespace deta::net

#endif  // DETA_NET_TRANSPORT_H_
