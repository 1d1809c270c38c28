#include "net/message_bus.h"

#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace deta::net {

std::unique_ptr<Endpoint> MessageBus::CreateEndpoint(const std::string& name) {
  std::unique_ptr<Endpoint> endpoint = MakeEndpoint(name);
  MutexLock lock(mutex_);
  DETA_CHECK_MSG(endpoints_.find(name) == endpoints_.end(),
                 "duplicate endpoint name: " << name);
  endpoints_[name] = endpoint.get();
  return endpoint;
}

void MessageBus::SetFaultPlan(FaultPlan plan) {
  MutexLock lock(mutex_);
  if (plan.enabled()) {
    injector_ = std::make_unique<FaultInjector>(std::move(plan));
  } else {
    injector_.reset();
  }
  held_.clear();
}

void MessageBus::Deliver(Message message) {
  auto it = endpoints_.find(message.to);
  if (it == endpoints_.end() || MailboxClosed(*it->second)) {
    DETA_COUNTER("net.bus.dropped").Increment();
    topic_counters_.Get("net.bus.dropped", message.type).Increment();
    LOG_DEBUG << "dropping message " << message.type << " to "
              << (it == endpoints_.end() ? "unknown" : "closed") << " endpoint "
              << message.to;
    return;
  }
  DETA_COUNTER("net.bus.delivered").Increment();
  DETA_COUNTER("net.bus.delivered_bytes").Add(message.WireSize());
  topic_counters_.Get("net.bus.delivered", message.type).Increment();
  // Push happens under the bus lock so the target cannot unregister mid-delivery; the
  // mailbox push never blocks (unbounded queue), so this cannot deadlock.
  DeliverToMailbox(*it->second, std::move(message));
}

bool MessageBus::Send(Message message) {
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
  topic_counters_.Get("net.bus.sent", message.type).Increment();
  auto target = endpoints_.find(message.to);
  bool accepted = target != endpoints_.end() && !MailboxClosed(*target->second);
  if (!accepted) {
    // A name nobody ever registered (or whose endpoint is gone) is a routing bug in
    // fault-free runs; the dedicated counter lets the CI must-be-zero gate catch it
    // even when nobody reads the logs.
    DETA_COUNTER("net.bus.unknown_target").Increment();
    LOG_WARNING << "dropping message " << message.type << " to "
                << (target == endpoints_.end() ? "unknown" : "closed") << " endpoint "
                << message.to;
  }
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
    topic_counters_.Get("net.bus.fault_dropped", message.type).Increment();
    LOG_DEBUG << "fault: dropping " << message.type << " " << message.from << " -> "
              << message.to;
  } else if (d.reorder && !release.has_value()) {
    // Held until the edge's next send. If the slot was just vacated, deliver normally —
    // holding two would starve the first.
    held_.emplace(edge, std::move(message));
  } else {
    bool duplicate = d.duplicate;
    Message copy;
    if (duplicate) {
      DETA_COUNTER("net.bus.duplicated").Increment();
      topic_counters_.Get("net.bus.duplicated", message.type).Increment();
      copy = message;
    }
    Deliver(std::move(message));
    if (duplicate) {
      Deliver(std::move(copy));
    }
  }
  if (release.has_value()) {
    Deliver(std::move(*release));
  }
  return accepted;
}

void MessageBus::Unregister(const std::string& name) {
  MutexLock lock(mutex_);
  endpoints_.erase(name);
}

}  // namespace deta::net
