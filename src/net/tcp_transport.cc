#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "net/codec.h"

namespace deta::net {
namespace {

// Frame kinds (first u32 of every frame body).
constexpr uint32_t kFrameMsg = 1;
constexpr uint32_t kFrameRegister = 2;
constexpr uint32_t kFrameUnregister = 3;
constexpr uint32_t kFrameResolve = 4;
constexpr uint32_t kFrameResolveReply = 5;
// Graceful-shutdown announcement, queued behind all pending traffic when a node begins
// its drain. Because frames are parsed before EOF is honoured, a receiver always learns
// "this peer left on purpose" before it sees the close — so traffic stranded behind a
// GOODBYE is accounted as retired (fire-and-forget to a finished role), while an EOF
// with no GOODBYE stays a real drop. This mirrors the in-proc bus, where endpoints
// outlive the job and a send to a finished role lands in an unread mailbox.
constexpr uint32_t kFrameGoodbye = 6;

// Frames larger than this are a protocol error (the connection is dropped).
constexpr uint32_t kMaxFrameBytes = 256u << 20;
// Messages parked per unresolved name before the oldest is dropped (counted as dropped
// traffic; retransmissions recover).
constexpr size_t kMaxParkedPerName = 1024;
// Event-loop tick: the bound on epoll_wait (DL-L1) and the granularity of shutdown.
constexpr int kTickMs = 20;

// A frame's u32 little-endian length prefix at |at|.
uint32_t FrameLength(const uint8_t* at) { return ReadU32(std::span<const uint8_t>(at, 4), 0); }

// Bytes a receive buffer keeps free beyond the frame it is receiving, so one recv can
// also take in the head of whatever follows; no recv takes in more.
constexpr size_t kRecvChunk = 64 << 10;

// A frame is a u32 little-endian body length, then the body. Every control frame is made
// by FrameStart, which reserves the prefix, and FrameEnd, which fills it in, so the body
// is written once and never copied behind the prefix.
Writer FrameStart(uint32_t kind) {
  Writer w;
  w.WriteU32(0);
  w.WriteU32(kind);
  return w;
}

Bytes FrameEnd(Writer& w) {
  Bytes frame = w.Take();
  const uint32_t len = static_cast<uint32_t>(frame.size() - 4);
  for (size_t i = 0; i < 4; ++i) {
    frame[i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return frame;
}

Bytes NameAddrFrame(uint32_t kind, const std::string& name, const std::string& addr) {
  Writer w = FrameStart(kind);
  w.WriteString(name);
  w.WriteString(addr);
  return FrameEnd(w);
}

Bytes NameFrame(uint32_t kind, const std::string& name) {
  Writer w = FrameStart(kind);
  w.WriteString(name);
  return FrameEnd(w);
}

Bytes GoodbyeFrame() {
  Writer w = FrameStart(kFrameGoodbye);
  return FrameEnd(w);
}

// Parses "a.b.c.d:port" into a sockaddr. Numeric IPv4 only (see header).
bool ParseAddr(const std::string& addr, sockaddr_in* out) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos) {
    return false;
  }
  std::string host = addr.substr(0, colon);
  int port = 0;
  for (size_t i = colon + 1; i < addr.size(); ++i) {
    if (addr[i] < '0' || addr[i] > '9') {
      return false;
    }
    port = port * 10 + (addr[i] - '0');
  }
  if (port <= 0 || port > 65535) {
    return false;
  }
  std::memset(out, 0, sizeof(*out));
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  return inet_pton(AF_INET, host.c_str(), &out->sin_addr) == 1;
}

}  // namespace

Bytes DataFrameHead(const Message& m) {
  Writer w;
  w.Reserve(4 + 4 + 8 * 5 + m.from.size() + m.to.size() + m.type.size());
  w.WriteU32(0);  // the body length, filled in below
  w.WriteU32(kFrameMsg);
  w.WriteString(m.from);
  w.WriteString(m.to);
  w.WriteString(m.type);
  w.WriteU64(m.seq);
  w.WriteU64(m.payload.size());
  Bytes head = w.Take();
  const uint64_t len = head.size() - 4 + m.payload.size();
  DETA_CHECK_LE(len, uint64_t{0xffffffffu});
  for (size_t i = 0; i < 4; ++i) {
    head[i] = static_cast<uint8_t>(len >> (8 * i));
  }
  return head;
}

Message ParseDataFrame(std::span<const uint8_t> body) {
  Reader r(body);
  DETA_CHECK_EQ(r.ReadU32(), kFrameMsg);
  Message m;
  m.from = r.ReadString();
  m.to = r.ReadString();
  m.type = r.ReadString();
  m.seq = r.ReadU64();
  std::span<const uint8_t> payload = r.ReadSpan();
  m.payload.assign(payload.begin(), payload.end());
  return m;
}

TcpTransport::TcpTransport(TcpTransportOptions options) : options_(std::move(options)) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  DETA_CHECK_MSG(epoll_fd_ >= 0, "epoll_create1 failed: " << std::strerror(errno));
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  DETA_CHECK_MSG(wake_fd_ >= 0, "eventfd failed: " << std::strerror(errno));

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  DETA_CHECK_MSG(listen_fd_ >= 0, "socket failed: " << std::strerror(errno));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in bind_addr;
  DETA_CHECK_MSG(
      ParseAddr(options_.listen_host + ":" +
                    std::to_string(options_.listen_port == 0 ? 1 : options_.listen_port),
                &bind_addr),
      "bad listen_host: " << options_.listen_host);
  bind_addr.sin_port = htons(static_cast<uint16_t>(options_.listen_port));
  DETA_CHECK_MSG(
      bind(listen_fd_, reinterpret_cast<sockaddr*>(&bind_addr), sizeof(bind_addr)) == 0,
      "bind " << options_.listen_host << ":" << options_.listen_port
              << " failed: " << std::strerror(errno));
  DETA_CHECK_MSG(listen(listen_fd_, SOMAXCONN) == 0,
                 "listen failed: " << std::strerror(errno));
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  DETA_CHECK_MSG(
      getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
      "getsockname failed: " << std::strerror(errno));
  bound_port_ = ntohs(bound.sin_port);
  self_addr_ = options_.listen_host + ":" + std::to_string(bound_port_);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  DETA_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
  ev.data.fd = wake_fd_;
  DETA_CHECK(epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0);

  LOG_DEBUG << options_.node_name << ": tcp transport listening on " << self_addr_
            << (options_.registry_addr.empty() ? " (registry)" : "");
  loop_thread_ = ServiceThread([this] { Loop(); });
}

TcpTransport::~TcpTransport() {
  stop_.store(true);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
  loop_thread_.Join();
  close(listen_fd_);
  close(wake_fd_);
  close(epoll_fd_);
}

std::string TcpTransport::registry_address() const { return self_addr_; }

void TcpTransport::Registered(const std::string& name) {
  MutexLock lock(mutex_);
  if (options_.registry_addr.empty()) {
    RegistryAdd(name, self_addr_);
  } else {
    // A fresh registry connection re-registers every local endpoint (this one
    // included); an existing one just needs the new name.
    bool fresh = EnsureRegistryConn();
    if (!fresh && registry_fd_ >= 0) {
      QueueFrame(registry_fd_,
                 {NameAddrFrame(kFrameRegister, name, self_addr_), false, ""});
    }
  }
}

void TcpTransport::Unregistered(const std::string& name) {
  MutexLock lock(mutex_);
  if (HasOpenEndpoint(name)) {
    return;  // re-created under the same name since it left the table: keep it registered
  }
  if (options_.registry_addr.empty()) {
    RegistryRemove(name);
  } else if (registry_fd_ >= 0) {
    QueueFrame(registry_fd_, {NameFrame(kFrameUnregister, name), false, ""});
  }
}

void TcpTransport::Route(Message message) {
  auto cached = name_cache_.find(message.to);
  if (cached != name_cache_.end()) {
    RouteResolved(std::move(message), cached->second);
    return;
  }
  std::deque<Message>& parked = parked_[message.to];
  parked.push_back(std::move(message));
  if (parked.size() > kMaxParkedPerName) {
    CountDropped(parked.front().type);
    parked.pop_front();
  }
  ResolveName(parked.back().to);
}

void TcpTransport::RouteResolved(Message message, const std::string& addr) {
  if (retired_addrs_.count(addr) != 0) {
    // Covers the post-close window: the peer said goodbye and is gone, but a stale
    // resolve (or a reply already in flight from the registry) still names its address.
    CountRetired(message.type);
    return;
  }
  int fd = GetOrConnect(addr);
  if (fd < 0) {
    CountDropped(message.type);
    return;
  }
  // The payload moves into the queue: only the head is built here, under the lock, and
  // HandleWritable sends the two with one sendmsg.
  QueueFrame(fd, {DataFrameHead(message), true, message.type, std::move(message.payload)});
}

void TcpTransport::ResolveName(const std::string& name) {
  if (options_.registry_addr.empty()) {
    auto it = registry_names_.find(name);
    if (it != registry_names_.end()) {
      CompleteResolve(name, it->second);
    } else {
      // Rendezvous: park until some node registers the name (startup order freedom).
      registry_waiters_[name].insert(-1);
    }
    return;
  }
  EnsureRegistryConn();
  if (registry_fd_ >= 0 && resolve_inflight_.insert(name).second) {
    QueueFrame(registry_fd_, {NameFrame(kFrameResolve, name), false, ""});
  }
}

void TcpTransport::CompleteResolve(const std::string& name, const std::string& addr) {
  name_cache_[name] = addr;
  resolve_inflight_.erase(name);
  auto it = parked_.find(name);
  if (it == parked_.end()) {
    return;
  }
  std::deque<Message> queued = std::move(it->second);
  parked_.erase(it);
  for (Message& m : queued) {
    RouteResolved(std::move(m), addr);
  }
}

void TcpTransport::RegistryAdd(const std::string& name, const std::string& addr) {
  registry_names_[name] = addr;
  auto it = registry_waiters_.find(name);
  if (it == registry_waiters_.end()) {
    return;
  }
  std::set<int> waiters = std::move(it->second);
  registry_waiters_.erase(it);
  for (int fd : waiters) {
    if (fd == -1) {
      CompleteResolve(name, addr);
    } else if (conns_.find(fd) != conns_.end()) {
      QueueFrame(fd, {NameAddrFrame(kFrameResolveReply, name, addr), false, ""});
    }
  }
}

void TcpTransport::RegistryRemove(const std::string& name) {
  registry_names_.erase(name);
  // Local sends must stop short-circuiting to the dead address; a revived role may
  // re-register from a different node.
  name_cache_.erase(name);
}

bool TcpTransport::EnsureRegistryConn() {
  if (options_.registry_addr.empty() || registry_fd_ >= 0) {
    return false;
  }
  int fd = GetOrConnect(options_.registry_addr);
  if (fd < 0) {
    return false;
  }
  registry_fd_ = fd;
  for (const std::string& name : LocalNames()) {
    QueueFrame(registry_fd_,
               {NameAddrFrame(kFrameRegister, name, self_addr_), false, ""});
  }
  return true;
}

int TcpTransport::GetOrConnect(const std::string& addr) {
  auto it = addr_to_fd_.find(addr);
  if (it != addr_to_fd_.end()) {
    return it->second;
  }
  sockaddr_in sa;
  if (!ParseAddr(addr, &sa)) {
    LOG_WARNING << options_.node_name << ": unparseable peer address " << addr;
    return -1;
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    LOG_WARNING << options_.node_name << ": socket failed: " << std::strerror(errno);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    LOG_DEBUG << options_.node_name << ": connect " << addr
              << " failed: " << std::strerror(errno);
    close(fd);
    return -1;
  }
  Conn conn;
  conn.fd = fd;
  conn.connected = (rc == 0);
  conn.peer_addr = addr;
  conns_[fd] = std::move(conn);
  addr_to_fd_[addr] = fd;
  epoll_event ev{};
  // EPOLLOUT stays armed until the connect completes and the queue drains
  // (UpdateEpollInterest disarms it).
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    close(fd);
    conns_.erase(fd);
    addr_to_fd_.erase(addr);
    return -1;
  }
  return fd;
}

void TcpTransport::QueueFrame(int fd, OutFrame frame) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    if (frame.is_data) {
      CountDropped(frame.type);
    }
    return;
  }
  it->second.outq.push_back(std::move(frame));
  UpdateEpollInterest(fd);
}

void TcpTransport::UpdateEpollInterest(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  if (!it->second.connected || !it->second.outq.empty()) {
    ev.events |= EPOLLOUT;
  }
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void TcpTransport::CloseMalformed(int fd, const char* why) {
  DETA_COUNTER("net.bus.malformed_frames").Increment();
  LOG_WARNING << options_.node_name << ": " << why << " — closing its connection";
  CloseConn(fd, why);
}

void TcpTransport::CloseConn(int fd, const char* why) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  uint64_t lost = 0;
  for (const OutFrame& f : it->second.outq) {
    if (!f.is_data) {
      continue;
    }
    lost += 1;
    // Queued-but-unsent messages die with the connection. After a GOODBYE they are
    // tail traffic to a peer that exited on purpose (retired); otherwise this is
    // network loss as far as the protocol is concerned, recovered by retransmission.
    if (it->second.peer_retired) {
      CountRetired(f.type);
    } else {
      CountDropped(f.type);
    }
  }
  LOG_DEBUG << options_.node_name << ": closing connection"
            << (it->second.peer_addr.empty() ? "" : " to " + it->second.peer_addr) << " ("
            << why << ", " << lost << " frames lost)";
  if (!it->second.peer_addr.empty()) {
    addr_to_fd_.erase(it->second.peer_addr);
    // Force re-resolution: the peer may come back on a different port.
    for (auto nc = name_cache_.begin(); nc != name_cache_.end();) {
      if (nc->second == it->second.peer_addr) {
        nc = name_cache_.erase(nc);
      } else {
        ++nc;
      }
    }
  }
  if (fd == registry_fd_) {
    registry_fd_ = -1;
    resolve_inflight_.clear();
  }
  for (auto& [name, waiters] : registry_waiters_) {
    waiters.erase(fd);
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  close(fd);
  conns_.erase(it);
  rx_.erase(fd);
}

void TcpTransport::HandleAccept() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN (or a transient error): nothing more to accept this tick
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn conn;
    conn.fd = fd;
    conn.connected = true;
    conns_[fd] = std::move(conn);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      conns_.erase(fd);
    }
  }
}

void TcpTransport::HandleWritable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  Conn& conn = it->second;
  if (!conn.connected) {
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      CloseConn(fd, "connect failed");
      return;
    }
    conn.connected = true;
  }
  while (!conn.outq.empty()) {
    // Head and payload leave in one sendmsg, straight from the buffers they were built
    // in; |out_offset| counts across both.
    const OutFrame& frame = conn.outq.front();
    iovec iov[2];
    size_t iovcnt = 0;
    size_t skip = conn.out_offset;
    for (const Bytes* part : {&frame.head, &frame.payload}) {
      if (skip >= part->size()) {
        skip -= part->size();
        continue;
      }
      iov[iovcnt].iov_base = const_cast<uint8_t*>(part->data() + skip);
      iov[iovcnt].iov_len = part->size() - skip;
      ++iovcnt;
      skip = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      CloseConn(fd, "write error");
      return;
    }
    conn.out_offset += static_cast<size_t>(n);
    if (conn.out_offset == frame.head.size() + frame.payload.size()) {
      conn.outq.pop_front();
      conn.out_offset = 0;
    }
  }
  UpdateEpollInterest(fd);
}

size_t TcpTransport::MakeRoom(RecvBuffer& rx) {
  const size_t pending = rx.end - rx.begin;
  if (pending == 0) {
    rx.begin = rx.end = 0;
  }
  // Room from |begin| for the frame being received, once its length prefix is in, plus
  // a chunk of what follows. ParseFrames has already closed a connection over a length
  // above kMaxFrameBytes, and consumed every complete frame. The buffer is kept across
  // frames, so it stays as large as the largest frame its connection has carried.
  size_t need = kRecvChunk;
  if (pending >= 4) {
    need += 4 + static_cast<size_t>(FrameLength(rx.data.get() + rx.begin));
  }
  if (rx.capacity - rx.begin >= need) {
    return rx.begin + need - rx.end;
  }
  if (rx.capacity >= need) {
    // Only the unparsed tail moves: at most one chunk, since no recv reads more than a
    // chunk past the end of the frame whose length it knew.
    std::memmove(rx.data.get(), rx.data.get() + rx.begin, pending);
  } else {
    // The length is the peer's claim, so the room is made before its bytes arrive: the
    // allocation is not initialised, so pages are touched only as bytes land, and one
    // this node cannot make closes the connection, not the node.
    const size_t capacity = std::max(need, rx.capacity + rx.capacity / 2);
    std::unique_ptr<uint8_t[]> grown;
    try {
      grown = std::make_unique_for_overwrite<uint8_t[]>(capacity);
    } catch (const std::bad_alloc&) {
      return 0;
    }
    if (pending > 0) {
      std::memcpy(grown.get(), rx.data.get() + rx.begin, pending);
    }
    rx.data = std::move(grown);
    rx.capacity = capacity;
  }
  if (pending > 0) {
    DETA_HISTOGRAM("net.tcp.recv_moved_bytes", ::deta::telemetry::Unit::kBytes)
        .Record(static_cast<double>(pending));
  }
  rx.begin = 0;
  rx.end = pending;
  // Up to the end of the room: more would take in the frames behind this one, to be
  // moved once it is parsed.
  return need - pending;
}

bool TcpTransport::ParseFrames(int fd, RecvBuffer& rx) {
  while (rx.end - rx.begin >= 4) {
    const uint8_t* at = rx.data.get() + rx.begin;
    const uint32_t len = FrameLength(at);
    if (len > kMaxFrameBytes) {
      MutexLock lock(mutex_);
      CloseMalformed(fd, "oversized frame");
      return false;
    }
    if (rx.end - rx.begin - 4 < len) {
      break;
    }
    rx.begin += 4 + len;
    if (!HandleFrame(fd, {at + 4, len})) {
      return false;  // closed over a bad frame: the rest of its frames are not trusted
    }
  }
  return true;
}

void TcpTransport::HandleReadable(int fd) {
  {
    MutexLock lock(mutex_);
    if (conns_.find(fd) == conns_.end()) {
      return;
    }
  }
  // Only this thread closes connections, so |fd| and its buffer stay valid until it
  // does. Bytes are received straight into the buffer and frames parsed where they lie,
  // each complete frame as soon as it is in.
  RecvBuffer& rx = rx_[fd];
  // A peer that sends its final frames and immediately exits delivers data and EOF in
  // the same readable event; its frames are dispatched before the close below.
  const char* close_reason = nullptr;
  for (;;) {
    const size_t room = MakeRoom(rx);
    if (room == 0) {
      MutexLock lock(mutex_);
      CloseMalformed(fd, "frame too large to buffer");
      return;
    }
    ssize_t n = recv(fd, rx.data.get() + rx.end, room, 0);
    if (n > 0) {
      rx.end += static_cast<size_t>(n);
      if (!ParseFrames(fd, rx)) {
        return;  // the connection, and |rx| with it, are gone
      }
      continue;
    }
    if (n == 0) {
      close_reason = "peer closed";
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      close_reason = "read error";
    }
    break;
  }
  if (close_reason != nullptr) {
    MutexLock lock(mutex_);
    CloseConn(fd, close_reason);
  }
}

bool TcpTransport::HandleFrame(int fd, std::span<const uint8_t> body) {
  try {
    if (ReadU32(body, 0) == kFrameMsg) {
      // Data frames are copied out and delivered without mutex_: the payload's one copy
      // on this side does not hold up senders.
      DeliverLocal(ParseDataFrame(body));
      return true;
    }
  } catch (const CheckFailure&) {
    // Like an oversized or unknown-kind frame: the connection closes, the node lives.
    MutexLock lock(mutex_);
    CloseMalformed(fd, "malformed frame");
    return false;
  }
  MutexLock lock(mutex_);
  try {
    HandleControlFrame(fd, body);
  } catch (const CheckFailure&) {
    CloseMalformed(fd, "malformed frame");
  }
  return conns_.find(fd) != conns_.end();
}

void TcpTransport::HandleControlFrame(int fd, std::span<const uint8_t> body) {
  Reader r(body);
  uint32_t kind = r.ReadU32();
  switch (kind) {
    case kFrameRegister: {
      std::string name = r.ReadString();
      std::string addr = r.ReadString();
      RegistryAdd(name, addr);
      return;
    }
    case kFrameUnregister: {
      RegistryRemove(r.ReadString());
      return;
    }
    case kFrameResolve: {
      std::string name = r.ReadString();
      auto it = registry_names_.find(name);
      if (it != registry_names_.end()) {
        QueueFrame(fd, {NameAddrFrame(kFrameResolveReply, name, it->second), false, ""});
      } else {
        registry_waiters_[name].insert(fd);
      }
      return;
    }
    case kFrameResolveReply: {
      std::string name = r.ReadString();
      std::string addr = r.ReadString();
      CompleteResolve(name, addr);
      return;
    }
    case kFrameGoodbye: {
      auto it = conns_.find(fd);
      if (it != conns_.end()) {
        it->second.peer_retired = true;
        if (!it->second.peer_addr.empty()) {
          retired_addrs_.insert(it->second.peer_addr);
        }
      }
      return;
    }
    default:
      CloseMalformed(fd, "unknown frame kind");
      return;
  }
}

void TcpTransport::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  std::chrono::steady_clock::time_point stop_deadline{};
  for (;;) {
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, kTickMs);
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t flags = events[i].events;
      if (fd == listen_fd_) {
        MutexLock lock(mutex_);
        HandleAccept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t v;
        [[maybe_unused]] ssize_t rd = read(wake_fd_, &v, sizeof(v));
        continue;
      }
      // Read before honouring HUP so a peer's final frames are not lost when data and
      // hangup arrive in the same tick. A read takes mutex_ only for control frames and
      // closes.
      if ((flags & EPOLLIN) != 0) {
        HandleReadable(fd);
      }
      MutexLock lock(mutex_);
      if (conns_.find(fd) == conns_.end()) {
        continue;  // HandleReadable closed it
      }
      if ((flags & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(fd, "hangup");
        continue;
      }
      if ((flags & EPOLLOUT) != 0) {
        HandleWritable(fd);
      }
    }
    if (stop_.load()) {
      MutexLock lock(mutex_);
      auto now = std::chrono::steady_clock::now();
      if (stop_deadline == std::chrono::steady_clock::time_point{}) {
        stop_deadline = now + std::chrono::seconds(2);
        // Say goodbye on every connection, behind whatever is already queued, so peers
        // can tell this planned exit from a crash when our FIN reaches them.
        for (auto& [cfd, conn] : conns_) {
          conn.outq.push_back({GoodbyeFrame(), false, ""});
          UpdateEpollInterest(cfd);
        }
      }
      // Drain what can still be flushed (UNREGISTERs, final round traffic) before
      // tearing down, bounded so a dead peer cannot block shutdown.
      bool pending = false;
      for (const auto& [cfd, conn] : conns_) {
        if (!conn.outq.empty()) {
          pending = true;
          break;
        }
      }
      if (!pending || now >= stop_deadline) {
        std::vector<int> open;
        open.reserve(conns_.size());
        for (const auto& [cfd, conn] : conns_) {
          open.push_back(cfd);
        }
        for (int cfd : open) {
          CloseConn(cfd, "shutdown");
        }
        return;
      }
    }
  }
}

}  // namespace deta::net
