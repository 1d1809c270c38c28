// Simulated-time accounting for the latency experiments (Figures 5d-f, 6b, 7b).
//
// The paper measures wall-clock training latency on a physical testbed (SEV machines,
// GPUs, a real network). This repo runs everything in one process, so latency is modelled:
// the job's observer (core/deta_job.cc) mixes
//   * measured compute time (real CPU time spent in training/aggregation, timed by
//     Stopwatch), and
//   * modelled costs (LatencyModel: network transfer = rtt + bytes/bandwidth; SEV
//     memory-encryption overhead as a multiplicative factor on aggregator compute).
// A round's end-to-end latency combines sequential party work (max over parties, since
// parties run in parallel in the paper's testbed) and parallel aggregator work (max over
// aggregators — the property that makes Paillier *faster* under DeTA).
#ifndef DETA_COMMON_SIM_CLOCK_H_
#define DETA_COMMON_SIM_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <ctime>

namespace deta {

// Parameters of the modelled deployment, chosen to echo the paper's testbed shape.
struct LatencyModel {
  double rtt_seconds = 0.002;             // per message round trip (same-region LAN/WAN mix)
  double bandwidth_bytes_per_sec = 125e6;  // ~1 Gbps
  double sev_compute_overhead = 0.08;     // extra fraction of compute inside a CVM

  // Modelled time to move |bytes| across one hop.
  double TransferSeconds(uint64_t bytes) const {
    return rtt_seconds + static_cast<double>(bytes) / bandwidth_bytes_per_sec;
  }
};

// Stopwatch measuring this thread's CPU time. Thread CPU time (not wall time) is the
// right "compute cost" signal here: parties/aggregators that run concurrently in the
// modelled deployment share one core in this process, and wall time would charge each
// node for its neighbours' work.
class Stopwatch {
 public:
  Stopwatch() : start_(Now()) {}
  double ElapsedSeconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

// Wall-clock stopwatch for end-to-end measurements.
class WallStopwatch {
 public:
  WallStopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace deta

#endif  // DETA_COMMON_SIM_CLOCK_H_
