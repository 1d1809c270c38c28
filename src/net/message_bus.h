// In-process transport backend. Every logical node (party, aggregator, attestation
// proxy) registers an endpoint and gets a blocking mailbox; Send() routes by name.
// Traffic is counted only in the net.bus.* telemetry counters (delivered, dropped and
// fault-dropped, each also per topic), and an optional seeded fault-injection layer
// (net/fault.h) drops / delays / duplicates / reorders messages deterministically.
//
// This is the stand-in for the paper's gRPC/TLS deployment fabric when every role runs
// in one process: nodes run on real threads and communicate only through messages, so
// the initiator/follower aggregator protocol and the two-phase auth handshake execute
// as genuine message exchanges — and, with a fault plan installed, as genuinely lossy
// ones. The TCP backend (net/tcp_transport.h) enacts the same contract over real
// sockets; see net/transport.h for the split.
//
// Reliability contract: every message carries a per-sender sequence tag. The bus may
// deliver a tagged message zero, one, or two times; receiving endpoints suppress
// duplicates (same sender + tag), so retransmissions — which carry fresh tags — are the
// only way to recover from loss. See net/retry.h for the retransmission helper.
#ifndef DETA_NET_MESSAGE_BUS_H_
#define DETA_NET_MESSAGE_BUS_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "net/fault.h"
#include "net/transport.h"

namespace deta::net {

class MessageBus final : public Transport {
 public:
  MessageBus() = default;

  // Creates (registers) an endpoint. Name must be unique among live endpoints.
  std::unique_ptr<Endpoint> CreateEndpoint(const std::string& name) override;

  // Routes a message; drops it (with a warning and the net.bus.unknown_target counter)
  // if the target does not exist. Returns false when the target is missing or closed
  // (see Endpoint::Send).
  bool Send(Message message) override;

  // Installs a fault plan. Call before traffic starts; replaces any previous plan and
  // resets the per-edge fault schedule.
  void SetFaultPlan(FaultPlan plan) override;

  const char* BackendName() const override { return "inproc"; }

 private:
  uint64_t NextSeq() override {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }
  void Unregister(const std::string& name) override;
  // Counts + pushes to the target mailbox; counts a drop otherwise.
  void Deliver(Message message) DETA_REQUIRES(mutex_);

  Mutex mutex_;
  TopicCounterCache topic_counters_ DETA_GUARDED_BY(mutex_);
  std::map<std::string, Endpoint*> endpoints_ DETA_GUARDED_BY(mutex_);
  std::unique_ptr<FaultInjector> injector_ DETA_GUARDED_BY(mutex_);
  // Sequence tags are drawn from one bus-wide counter, not per endpoint: receivers dedup
  // on (sender name, tag), and a crashed role revived under the same name must never
  // reuse a tag its previous incarnation already sent, or the retransmission would be
  // suppressed as a duplicate.
  std::atomic<uint64_t> next_seq_{1};
  // Reorder holdback: at most one in-flight message per edge, released right after the
  // edge's next send (so a held message is delivered out of order but never starved).
  std::map<std::pair<std::string, std::string>, Message> held_ DETA_GUARDED_BY(mutex_);
};

// The in-process backend under its transport-role name (see net/transport.h).
using InProcTransport = MessageBus;

}  // namespace deta::net

#endif  // DETA_NET_MESSAGE_BUS_H_
