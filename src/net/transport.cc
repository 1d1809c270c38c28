#include "net/transport.h"

#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace deta::net {

Endpoint::Endpoint(std::string name, Transport* transport)
    : name_(std::move(name)), transport_(transport) {}

Endpoint::~Endpoint() {
  Close();
  transport_->Unregister(name_);
}

bool Endpoint::AlreadySeen(const Message& m) {
  if (m.seq == 0) {
    return false;
  }
  SeenWindow& w = seen_[m.from];
  if (m.seq <= w.horizon) {
    // Older than anything the window still tracks. Tags only grow, so a message this
    // far behind can only be a stale duplicate.
    return true;
  }
  if (!w.recent.insert(m.seq).second) {
    return true;
  }
  while (w.recent.size() > kDedupWindow) {
    auto oldest = w.recent.begin();
    w.horizon = *oldest;
    w.recent.erase(oldest);
  }
  return false;
}

std::optional<Message> Endpoint::PopDeduped(int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    std::optional<Message> m;
    if (timeout_ms < 0) {
      m = mailbox_.Pop();
    } else {
      auto remaining = deadline - std::chrono::steady_clock::now();
      if (remaining <= std::chrono::steady_clock::duration::zero()) {
        return std::nullopt;
      }
      m = mailbox_.PopFor(remaining);
    }
    if (!m.has_value()) {
      return std::nullopt;  // timeout or closed; closed() disambiguates
    }
    if (AlreadySeen(*m)) {
      LOG_DEBUG << name_ << ": suppressing duplicate " << m->type << " from " << m->from
                << " (seq " << m->seq << ")";
      continue;
    }
    return m;
  }
}

std::optional<Message> Endpoint::Receive() {
  if (!stashed_.empty()) {
    Message m = std::move(stashed_.front());
    stashed_.erase(stashed_.begin());
    return m;
  }
  return PopDeduped(-1);
}

std::optional<Message> Endpoint::ReceiveType(const std::string& type) {
  for (size_t i = 0; i < stashed_.size(); ++i) {
    if (stashed_[i].type == type) {
      Message m = std::move(stashed_[i]);
      stashed_.erase(stashed_.begin() + static_cast<long>(i));
      return m;
    }
  }
  for (;;) {
    std::optional<Message> m = PopDeduped(-1);
    if (!m.has_value()) {
      return std::nullopt;
    }
    if (m->type == type) {
      return m;
    }
    stashed_.push_back(std::move(*m));
  }
}

std::optional<Message> Endpoint::ReceiveFor(int timeout_ms) {
  if (!stashed_.empty()) {
    Message m = std::move(stashed_.front());
    stashed_.erase(stashed_.begin());
    return m;
  }
  return PopDeduped(timeout_ms);
}

std::optional<Message> Endpoint::ReceiveTypeFor(const std::string& type, int timeout_ms) {
  return ReceiveMatchFor(type, "", timeout_ms);
}

std::optional<Message> Endpoint::ReceiveMatchFor(const std::string& type,
                                                 const std::string& from, int timeout_ms) {
  auto matches = [&](const Message& m) {
    return m.type == type && (from.empty() || m.from == from);
  };
  for (size_t i = 0; i < stashed_.size(); ++i) {
    if (matches(stashed_[i])) {
      Message m = std::move(stashed_[i]);
      stashed_.erase(stashed_.begin() + static_cast<long>(i));
      return m;
    }
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (remaining <= std::chrono::milliseconds::zero()) {
      return std::nullopt;
    }
    std::optional<Message> m = PopDeduped(static_cast<int>(remaining.count()));
    if (!m.has_value()) {
      return std::nullopt;  // timeout or closed
    }
    if (matches(*m)) {
      return m;
    }
    stashed_.push_back(std::move(*m));
  }
}

bool Endpoint::Send(const std::string& to, const std::string& type, Bytes payload) {
  Message m;
  m.from = name_;
  m.to = to;
  m.type = type;
  m.payload = std::move(payload);
  m.seq = transport_->NextSeq();
  transport_->Send(std::move(m));
  return true;
}

void Endpoint::Close() { mailbox_.Close(); }

size_t Endpoint::DedupTagsForTest() const {
  size_t total = 0;
  for (const auto& [sender, window] : seen_) {
    total += window.recent.size();
  }
  return total;
}

std::unique_ptr<Endpoint> Transport::CreateEndpoint(const std::string& name) {
  std::unique_ptr<Endpoint> endpoint(new Endpoint(name, this));
  {
    MutexLock lock(table_mutex_);
    DETA_CHECK_MSG(endpoints_.emplace(name, endpoint.get()).second,
                   "duplicate endpoint name: " << name);
  }
  Registered(name);
  return endpoint;
}

void Transport::Unregister(const std::string& name) {
  {
    MutexLock lock(table_mutex_);
    endpoints_.erase(name);
  }
  Unregistered(name);
}

void Transport::Registered(const std::string&) {}
void Transport::Unregistered(const std::string&) {}

void Transport::SetFaultPlan(FaultPlan plan) {
  MutexLock lock(mutex_);
  if (plan.enabled()) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan));
  } else {
    injector_.reset();
  }
  held_.clear();
}

void Transport::Send(Message message) {
  FaultDecision d;
  int delay_ms = 0;
  {
    MutexLock lock(mutex_);
    if (injector_ != nullptr) {
      d = injector_->Decide(message.from, message.to, message.type);
      delay_ms = injector_->plan().delay_ms;
    }
  }
  if (d.delay && delay_ms > 0) {
    // Blocks the *sender*, like a slow link; messages on other edges overtake freely.
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  MutexLock lock(mutex_);
  DETA_COUNTER("net.bus.sent").Increment();
  DETA_COUNTER("net.bus.sent_bytes").Add(message.WireSize());
  CountTopic("net.bus.sent", message.type);
  std::pair<std::string, std::string> edge{message.from, message.to};
  // Release any message held back on this edge *after* processing the current one, so a
  // reorder fault swaps it behind its successor.
  std::optional<Message> release;
  auto held = held_.find(edge);
  if (held != held_.end()) {
    release = std::move(held->second);
    held_.erase(held);
  }
  if (d.drop) {
    // Deliberate (fault-injected) losses get their own counter so the CI bench gate can
    // insist net.bus.dropped stays zero on fault-free runs.
    DETA_COUNTER("net.bus.fault_dropped").Increment();
    CountTopic("net.bus.fault_dropped", message.type);
    LOG_DEBUG << "fault: dropping " << message.type << " " << message.from << " -> "
              << message.to;
  } else if (d.reorder && !release.has_value()) {
    // Held until the edge's next send. If the slot was just vacated, route normally —
    // holding two would starve the first.
    held_.emplace(edge, std::move(message));
  } else {
    std::optional<Message> copy;
    if (d.duplicate) {
      DETA_COUNTER("net.bus.duplicated").Increment();
      CountTopic("net.bus.duplicated", message.type);
      copy = message;
    }
    Route(std::move(message));
    if (copy.has_value()) {
      Route(std::move(*copy));
    }
  }
  if (release.has_value()) {
    Route(std::move(*release));
  }
}

void Transport::DeliverLocal(Message message) {
  {
    MutexLock lock(table_mutex_);
    auto it = endpoints_.find(message.to);
    if (it != endpoints_.end() && !it->second->closed()) {
      DETA_COUNTER("net.bus.delivered").Increment();
      DETA_COUNTER("net.bus.delivered_bytes").Add(message.WireSize());
      TopicCounter("net.bus.delivered", message.type).Increment();
      // Pushed under the table lock so the target cannot unregister mid-delivery; the
      // push never blocks (unbounded queue), so this cannot deadlock.
      it->second->mailbox_.Push(std::move(message));
      return;
    }
  }
  LOG_DEBUG << "dropping message " << message.type << " to unknown or closed endpoint "
            << message.to;
  CountDropped(message.type);
}

bool Transport::HasOpenEndpoint(const std::string& name) {
  MutexLock lock(table_mutex_);
  auto it = endpoints_.find(name);
  return it != endpoints_.end() && !it->second->closed();
}

std::vector<std::string> Transport::LocalNames() {
  MutexLock lock(table_mutex_);
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const auto& [name, endpoint] : endpoints_) {
    names.push_back(name);
  }
  return names;
}

void Transport::CountDropped(const std::string& type) {
  DETA_COUNTER("net.bus.dropped").Increment();
  CountTopic("net.bus.dropped", type);
}

void Transport::CountRetired(const std::string& type) {
  DETA_COUNTER("net.bus.retired").Increment();
  CountTopic("net.bus.retired", type);
}

void Transport::CountTopic(const char* kind, const std::string& type) {
  MutexLock lock(table_mutex_);
  TopicCounter(kind, type).Increment();
}

telemetry::Counter& Transport::TopicCounter(const char* kind, const std::string& type) {
  std::string key(kind);
  key.push_back('.');
  key.append(type, 0, type.find('.'));
  auto [it, inserted] = topic_counters_.try_emplace(std::move(key), nullptr);
  if (inserted) {
    it->second = &telemetry::MetricsRegistry::Global().GetCounter(it->first);
  }
  return *it->second;
}

}  // namespace deta::net
