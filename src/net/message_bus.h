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
// sockets, loss model included: a message to a name with no open endpoint (never
// created, closed, or a crashed role not yet revived) is counted once as
// net.bus.dropped and lost, as a dead peer loses it over TCP; Send still succeeds.
#ifndef DETA_NET_MESSAGE_BUS_H_
#define DETA_NET_MESSAGE_BUS_H_

#include <utility>

#include "net/transport.h"

namespace deta::net {

class MessageBus final : public Transport {
 private:
  void Route(Message message) override { DeliverLocal(std::move(message)); }
};

}  // namespace deta::net

#endif  // DETA_NET_MESSAGE_BUS_H_
