// deta::ServiceThread — the sanctioned owner of a protocol event-loop thread.
//
// Its owners are the role runtime (core::Role: every aggregator, party and key broker)
// and the TCP event loop, with one lifecycle: start, drain on Stop(), join on
// destruction. Wrapping that in one type keeps raw std::thread out of protocol code
// (deta_lint rule DL-D3 bans it outside this header and common/parallel), so thread
// ownership and joining are auditable in exactly two places.
#ifndef DETA_COMMON_THREAD_H_
#define DETA_COMMON_THREAD_H_

#include <thread>
#include <utility>

namespace deta {

class ServiceThread {
 public:
  ServiceThread() = default;
  template <typename Fn>
  explicit ServiceThread(Fn&& fn) : thread_(std::forward<Fn>(fn)) {}

  ServiceThread(ServiceThread&&) = default;
  ServiceThread& operator=(ServiceThread&& other) {
    Join();
    thread_ = std::move(other.thread_);
    return *this;
  }
  ServiceThread(const ServiceThread&) = delete;
  ServiceThread& operator=(const ServiceThread&) = delete;

  ~ServiceThread() { Join(); }

  // Blocks until the loop function returns. Idempotent; safe on a never-started
  // thread. Callers must first signal the loop to exit (close the endpoint, set the
  // stop flag) or this will block forever — that ordering is the role's contract.
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

}  // namespace deta

#endif  // DETA_COMMON_THREAD_H_
