// In-process transport backend. Every logical node (party, aggregator, attestation
// proxy) registers an endpoint and gets a blocking mailbox; every name is local, so
// routing a message is a push into the target's mailbox. The send pipeline — traffic
// counters, seeded fault injection (net/fault.h) and the reorder holdback — is
// Transport's (net/transport.h), shared with the TCP backend.
//
// This is the stand-in for the paper's gRPC/TLS deployment fabric when every role runs
// in one process: nodes run on real threads and communicate only through messages, so
// the initiator/follower aggregator protocol and the two-phase auth handshake execute
// as genuine message exchanges — and, with a fault plan installed, as genuinely lossy
// ones. The TCP backend (net/tcp_transport.h) enacts the same contract over real
// sockets.
//
// Unlike TCP, the bus knows every name: Send returns false, and counts
// net.bus.unknown_target, when the target has no open endpoint (see Endpoint::Send).
#ifndef DETA_NET_MESSAGE_BUS_H_
#define DETA_NET_MESSAGE_BUS_H_

#include <string>
#include <utility>

#include "net/transport.h"

namespace deta::net {

class MessageBus final : public Transport {
 private:
  void Route(Message message) override { DeliverLocal(std::move(message)); }
  bool Reachable(const std::string& to) override { return HasOpenEndpoint(to); }
};

}  // namespace deta::net

#endif  // DETA_NET_MESSAGE_BUS_H_
