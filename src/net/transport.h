// Pluggable message transport: the interface every backend implements, and the
// transport-agnostic Endpoint protocol code receives on.
//
// Two backends exist:
//   * MessageBus (net/message_bus.h) — the in-process backend. Routing is a map lookup
//     under one mutex; delivery is a mailbox push. `using InProcTransport = MessageBus`.
//   * TcpTransport (net/tcp_transport.h) — real non-blocking sockets behind an epoll
//     loop, length-prefixed frames (net/codec.h), and a name registry so roles still
//     address each other by logical name.
//
// The split of responsibilities is deliberate: everything a *receiver* needs —
// blocking/bounded receives, selective receive with a stash, duplicate suppression —
// lives in Endpoint and is identical over both backends. A backend only has to do three
// things: register/unregister names, route a tagged Message (applying the fault plan),
// and push delivered messages into the target Endpoint's mailbox. That keeps the
// reliability contract (messages arrive zero, one, or two times; retransmissions carry
// fresh tags; receivers dedup on (sender, tag)) a property of the endpoint layer, not of
// any particular wire.
#ifndef DETA_NET_TRANSPORT_H_
#define DETA_NET_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/queue.h"
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
  // Routes a message; returns false when the backend knows retransmitting is pointless
  // (in-proc: the target endpoint does not exist or closed its mailbox). A message lost
  // to fault injection — or, over TCP, to the network — still returns true.
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

// Backend interface. A Transport owns routing and delivery; Endpoints own receiving.
class Transport {
 public:
  virtual ~Transport() = default;

  // Creates (registers) an endpoint. Name must be unique among live endpoints on this
  // transport (and, for TCP, across the whole cluster).
  virtual std::unique_ptr<Endpoint> CreateEndpoint(const std::string& name) = 0;

  // Routes a message (see Endpoint::Send for the return-value contract). Callers should
  // normally go through Endpoint::Send, which tags the message from NextSeq().
  virtual bool Send(Message message) = 0;

  // Installs a fault plan. Call before traffic starts; replaces any previous plan and
  // resets the per-edge fault schedule. Faults are decided on the sending side in both
  // backends, so a given (seed, edge, send index) faults identically over either wire.
  virtual void SetFaultPlan(FaultPlan plan) = 0;

  // Short backend tag for logs/tests: "inproc" or "tcp".
  virtual const char* BackendName() const = 0;

 protected:
  // Constructs an Endpoint bound to this transport (the Endpoint constructor is
  // private; backends mint handles through this).
  std::unique_ptr<Endpoint> MakeEndpoint(std::string name);
  // Delivery primitive: pushes into the target's mailbox. The caller must hold
  // whatever lock makes the Endpoint* stable (see backend implementations); the push
  // itself never blocks (unbounded queue).
  static void DeliverToMailbox(Endpoint& endpoint, Message message);
  static bool MailboxClosed(const Endpoint& endpoint);

 private:
  friend class Endpoint;
  // Draws the next sequence tag. Transport-wide (not per endpoint): receivers dedup on
  // (sender name, tag), and a crashed role revived under the same name must never reuse
  // a tag its previous incarnation already sent.
  virtual uint64_t NextSeq() = 0;
  // Called from the Endpoint destructor.
  virtual void Unregister(const std::string& name) = 0;
};

// Shared cache of telemetry topic counters ("<kind>.<topic prefix>", where the topic
// prefix is the message type up to its first '.'). Both backends bump the same counter
// names so telemetry-based gates and experiments read identically over either wire.
// Not internally synchronized: the owning backend guards it with its own mutex.
class TopicCounterCache {
 public:
  telemetry::Counter& Get(const char* kind, const std::string& type);

 private:
  std::map<std::string, telemetry::Counter*> cache_;
};

}  // namespace deta::net

#endif  // DETA_NET_TRANSPORT_H_
