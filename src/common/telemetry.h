// Process-global observability substrate: counters, gauges, log-scale histograms, and
// lightweight RAII spans, feeding the machine-readable per-run reports the CI bench gate
// consumes (scripts/bench_gate.py).
//
// Design constraints, in priority order:
//
//  1. *Deterministic-friendly.* A metric counts logical events (messages delivered,
//     coordinates aggregated, chunks scheduled) whose number is a pure function of the
//     workload — never of the thread count. Snapshots are sorted by name, so two
//     fault-free runs of the same job at different thread counts produce identical
//     counter values and metric sets; only durations (histograms registered with
//     Unit::kSeconds, gauge values) may differ. DeterministicSignature() captures exactly
//     the invariant part, and tests diff it across threads={1,2,4}.
//  2. *Cheap enough for hot paths.* The write path is one relaxed atomic add into a
//     per-thread shard — no shared cache line is ever contended, no lock is taken after
//     a handle is resolved. Handle resolution (name -> slot) takes the registry mutex
//     once per call site via a function-local static. Budget: < 2% wall-clock on
//     micro_aggregation.
//  3. *Fold-on-snapshot.* Shards are only summed when Snapshot() runs; the instrumented
//     code never observes aggregation.
//
// Metric naming scheme: `layer.component.metric` (e.g. `net.bus.delivered`,
// `crypto.paillier.encrypt`, `core.deta_agg.fragments`). Span S records the histogram
// `span.S.wall_s`; its count doubles as the span's invocation counter. See DESIGN.md
// "Observability".
#ifndef DETA_COMMON_TELEMETRY_H_
#define DETA_COMMON_TELEMETRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_clock.h"

namespace deta::telemetry {

// What a histogram's recorded values measure. kSeconds histograms hold wall/CPU-time
// durations and are excluded from the determinism contract (their *presence* and the
// metric name still are part of it; their bucket contents are not).
enum class Unit : uint8_t { kCount = 0, kBytes = 1, kSeconds = 2 };

const char* UnitName(Unit unit);

// Number of log2 buckets per histogram. Bucket b holds values in [2^(b-31), 2^(b-30));
// bucket 0 additionally absorbs everything below 2^-31 (incl. zero/negative), bucket 63
// everything at or above 2^32. Covers ~0.5ns..4s durations and 1B..4GB sizes.
inline constexpr int kHistogramBuckets = 64;

// Lower bound of bucket |b| (the `le`-style boundary used by ToJson).
double BucketLowerBound(int b);
// Bucket index for |value| (pure function; identical on every platform/thread count).
int BucketFor(double value);

class MetricsRegistry;

// Monotonic event counter. Handle is stable for the process lifetime; copy freely.
class Counter {
 public:
  void Add(uint64_t delta);
  void Increment() { Add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(uint32_t slot) : slot_(slot) {}
  uint32_t slot_;
};

// Last-write-wins instantaneous value (configured thread count, pool size, ...). Gauge
// values are run-configuration, not event counts: excluded from the determinism
// signature (names included).
class Gauge {
 public:
  void Set(double value);

 private:
  friend class MetricsRegistry;
  explicit Gauge(uint32_t index) : index_(index) {}
  uint32_t index_;
};

// Fixed log2-bucket histogram. Record() is one relaxed atomic add into the value's
// bucket plus a count/sum update in the caller's shard.
class Histogram {
 public:
  void Record(double value);

 private:
  friend class MetricsRegistry;
  Histogram(uint32_t base_slot, uint32_t sum_index)
      : base_slot_(base_slot), sum_index_(sum_index) {}
  uint32_t base_slot_;  // kHistogramBuckets bucket slots, then one count slot
  uint32_t sum_index_;  // per-shard double accumulator index
};

struct HistogramSnapshot {
  Unit unit = Unit::kCount;
  uint64_t count = 0;
  double sum = 0.0;
  // Non-empty buckets as (bucket index, count), ascending by index.
  std::vector<std::pair<int, uint64_t>> buckets;
};

// A sorted, immutable fold of every shard at one instant.
struct TelemetrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // One line per invariant fact: counter name=value, gauge/histogram names, and — for
  // histograms not in Unit::kSeconds — count plus bucket contents. Two fault-free runs
  // of the same workload at different thread counts produce byte-identical signatures.
  std::string DeterministicSignature() const;
  // Same, restricted to metrics whose name starts with |prefix|. Crash/resume tests use
  // this: protocol-fabric counters (retries, channel seals) legitimately differ when a
  // role dies and is revived, but the training-progress metrics under "core.deta_job."
  // must not.
  std::string DeterministicSignature(const std::string& prefix) const;
};

// after - before, element-wise: counters/histogram contents subtract (values missing
// from |before| pass through), gauges take the |after| value. Lets a job report its own
// per-run telemetry without resetting the process-global registry.
TelemetrySnapshot Delta(const TelemetrySnapshot& before, const TelemetrySnapshot& after);

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Idempotent: the same name always resolves to the same handle. The registry mutex is
  // taken only here — cache the returned reference (e.g. in a function-local static).
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name, Unit unit = Unit::kCount);

  // Folds every thread's shard into one sorted snapshot. Safe to call concurrently with
  // writers; in-flight increments land in this snapshot or the next.
  TelemetrySnapshot Snapshot() const;

  // Zeroes every counter/histogram/gauge value (registrations persist). Meant for test
  // setup and between bench repetitions while writers are quiescent.
  void Reset();

 private:
  MetricsRegistry() = default;
};

// Convenience wrappers over MetricsRegistry::Global().
TelemetrySnapshot Snapshot();
void Reset();

// Function-local-static handle caching for hot call sites:
//   DETA_COUNTER("net.channel.seal").Increment();
// resolves the name exactly once per call site.
#define DETA_COUNTER(name)                                                     \
  ([]() -> ::deta::telemetry::Counter& {                                       \
    static ::deta::telemetry::Counter& counter =                               \
        ::deta::telemetry::MetricsRegistry::Global().GetCounter(name);         \
    return counter;                                                            \
  }())
#define DETA_HISTOGRAM(name, unit)                                             \
  ([]() -> ::deta::telemetry::Histogram& {                                     \
    static ::deta::telemetry::Histogram& histogram =                           \
        ::deta::telemetry::MetricsRegistry::Global().GetHistogram(name, unit); \
    return histogram;                                                          \
  }())

// RAII trace span. Construction pushes onto the calling thread's span stack;
// End()/destruction pops it and records the wall-clock duration into the histogram
// `span.<name>.wall_s`.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Stops and records early; the destructor becomes a no-op. Idempotent.
  void End();

  const std::string& name() const { return name_; }
  // Nesting depth of the *current thread's* innermost open span (0 = none open). The
  // per-thread stack means concurrent nodes (aggregator threads, party threads) trace
  // independently without synchronization.
  static int Depth();
  // Name of the current thread's innermost open span; empty when none.
  static std::string Current();

 private:
  std::string name_;
  WallStopwatch wall_;
  Span* parent_;  // enclosing span on this thread, restored by End()
  bool ended_ = false;
};

// --- driver integration -----------------------------------------------------

// Scans argv for `--telemetry-out=PATH` (or `--telemetry-out PATH`), removes it, and
// returns PATH ("" if absent). Call before handing argv to a flag parser that rejects
// unknown flags (e.g. benchmark::Initialize).
std::string ConsumeTelemetryFlag(int* argc, char** argv);

// The build that compiled the library: the CMake build type and the flags that compiled
// src/ (CMAKE_CXX_FLAGS plus the build type's own, as src/CMakeLists.txt leaves them).
// Timings from different builds do not compare (Debug is -O0), so every telemetry JSON
// and every bench snapshot (bench/bench_main.h) names it.
struct BuildStamp {
  std::string type;
  std::string cxx_flags;
};
BuildStamp Build();

// Machine-readable export consumed by scripts/bench_gate.py:
//   {"version":1,"build":{"type":...,"cxx_flags":...},
//    "counters":{...},"gauges":{...},
//    "histograms":{name:{"unit":...,"count":...,"sum":...,"buckets":[[b,c],...]}}}
// "build" is Build().
std::string ToJson(const TelemetrySnapshot& snapshot);
// Writes ToJson(snapshot) to |path|; false (with a logged error) on I/O failure.
bool WriteJsonFile(const TelemetrySnapshot& snapshot, const std::string& path);

}  // namespace deta::telemetry

#endif  // DETA_COMMON_TELEMETRY_H_
