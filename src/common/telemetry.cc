#include "common/telemetry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace deta::telemetry {

namespace {

// Capacity ceilings. Metrics are registered by code, not by input data, so these are
// bounds on the instrumentation surface, not on workload size; blowing one is a
// programming error caught loudly below.
constexpr uint32_t kMaxSlots = 16384;       // counter slots + histogram bucket/count slots
constexpr uint32_t kMaxHistograms = 128;    // per-shard double accumulators

// One thread's private write surface. Only the owning thread writes (relaxed atomic
// adds, never contended); Snapshot() folds across all shards with relaxed loads. Shards
// are leaked on thread exit so late folds never lose counts.
struct Shard {
  std::atomic<uint64_t> slots[kMaxSlots] = {};
  std::atomic<double> sums[kMaxHistograms] = {};
};

struct HistogramInfo {
  Histogram* handle;
  Unit unit;
};

// All registry state, heap-allocated once and never destroyed: instrumented worker
// threads may outlive static destruction order, and a dead registry must not be
// observable from a Counter::Add in flight.
struct State {
  Mutex mutex;
  // Stable addresses for returned references.
  std::deque<Counter> counters DETA_GUARDED_BY(mutex);
  std::deque<Gauge> gauges DETA_GUARDED_BY(mutex);
  std::deque<Histogram> histograms DETA_GUARDED_BY(mutex);
  std::map<std::string, Counter*> counter_by_name DETA_GUARDED_BY(mutex);
  std::map<std::string, Gauge*> gauge_by_name DETA_GUARDED_BY(mutex);
  std::map<std::string, HistogramInfo> histogram_by_name DETA_GUARDED_BY(mutex);
  // Indexed by Gauge::index_. Deliberately NOT guarded: elements are atomics at stable
  // deque addresses, and Gauge::Set writes them lock-free on the hot path; the mutex
  // only serializes growth (registration) against iteration (Snapshot/Reset).
  std::deque<std::atomic<double>> gauge_values;
  std::vector<std::unique_ptr<Shard>> shards DETA_GUARDED_BY(mutex);
  uint32_t next_slot DETA_GUARDED_BY(mutex) = 0;
  uint32_t next_histogram DETA_GUARDED_BY(mutex) = 0;
};

State& GlobalState() {
  static State* state = new State();
  return *state;
}

// Sums |slot| across every shard. A static helper rather than a lambda inside
// Snapshot(): the analysis checks lambda bodies out of context, so a guarded access
// inside one warns even when every call site holds the lock.
uint64_t FoldSlot(const State& state, uint32_t slot) DETA_REQUIRES(state.mutex) {
  uint64_t total = 0;
  for (const auto& shard : state.shards) {
    total += shard->slots[slot].load(std::memory_order_relaxed);
  }
  return total;
}

thread_local Shard* tls_shard = nullptr;

Shard& LocalShard() {
  if (tls_shard == nullptr) {
    auto shard = std::make_unique<Shard>();
    tls_shard = shard.get();
    State& state = GlobalState();
    MutexLock lock(state.mutex);
    state.shards.push_back(std::move(shard));
  }
  return *tls_shard;
}

[[noreturn]] void CapacityOverflow(const char* what) {
  std::fprintf(stderr, "telemetry: %s capacity exhausted — raise the ceiling in telemetry.cc\n",
               what);
  std::abort();
}

void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

// --- span stack (per thread) ---

thread_local Span* tls_current_span = nullptr;
thread_local int tls_span_depth = 0;

}  // namespace

const char* UnitName(Unit unit) {
  switch (unit) {
    case Unit::kCount:
      return "count";
    case Unit::kBytes:
      return "bytes";
    case Unit::kSeconds:
      return "seconds";
  }
  return "?";
}

double BucketLowerBound(int b) { return std::ldexp(1.0, b - 31); }

int BucketFor(double value) {
  if (!(value > 0.0)) {
    return 0;
  }
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp with m in [0.5, 1)
  int b = exp + 30;         // [2^(exp-1), 2^exp) => bucket exp+30
  if (b < 0) return 0;
  if (b >= kHistogramBuckets) return kHistogramBuckets - 1;
  return b;
}

void Counter::Add(uint64_t delta) {
  LocalShard().slots[slot_].fetch_add(delta, std::memory_order_relaxed);
}

void Gauge::Set(double value) {
  GlobalState().gauge_values[index_].store(value, std::memory_order_relaxed);
}

void Histogram::Record(double value) {
  Shard& shard = LocalShard();
  shard.slots[base_slot_ + static_cast<uint32_t>(BucketFor(value))].fetch_add(
      1, std::memory_order_relaxed);
  shard.slots[base_slot_ + kHistogramBuckets].fetch_add(1, std::memory_order_relaxed);
  shard.sums[sum_index_].fetch_add(value, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  State& state = GlobalState();
  MutexLock lock(state.mutex);
  auto it = state.counter_by_name.find(name);
  if (it != state.counter_by_name.end()) {
    return *it->second;
  }
  if (state.next_slot + 1 > kMaxSlots) {
    CapacityOverflow("counter slot");
  }
  state.counters.push_back(Counter(state.next_slot++));
  Counter* handle = &state.counters.back();
  state.counter_by_name.emplace(name, handle);
  return *handle;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  State& state = GlobalState();
  MutexLock lock(state.mutex);
  auto it = state.gauge_by_name.find(name);
  if (it != state.gauge_by_name.end()) {
    return *it->second;
  }
  state.gauge_values.emplace_back(0.0);
  state.gauges.push_back(Gauge(static_cast<uint32_t>(state.gauge_values.size() - 1)));
  Gauge* handle = &state.gauges.back();
  state.gauge_by_name.emplace(name, handle);
  return *handle;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, Unit unit) {
  State& state = GlobalState();
  MutexLock lock(state.mutex);
  auto it = state.histogram_by_name.find(name);
  if (it != state.histogram_by_name.end()) {
    return *it->second.handle;
  }
  if (state.next_slot + kHistogramBuckets + 1 > kMaxSlots) {
    CapacityOverflow("histogram slot");
  }
  if (state.next_histogram + 1 > kMaxHistograms) {
    CapacityOverflow("histogram accumulator");
  }
  state.histograms.push_back(Histogram(state.next_slot, state.next_histogram));
  state.next_slot += kHistogramBuckets + 1;
  ++state.next_histogram;
  Histogram* handle = &state.histograms.back();
  state.histogram_by_name.emplace(name, HistogramInfo{handle, unit});
  return *handle;
}

TelemetrySnapshot MetricsRegistry::Snapshot() const {
  State& state = GlobalState();
  MutexLock lock(state.mutex);
  TelemetrySnapshot snapshot;
  for (const auto& [name, counter] : state.counter_by_name) {
    snapshot.counters[name] = FoldSlot(state, counter->slot_);
  }
  for (const auto& [name, gauge] : state.gauge_by_name) {
    snapshot.gauges[name] =
        state.gauge_values[gauge->index_].load(std::memory_order_relaxed);
  }
  for (const auto& [name, info] : state.histogram_by_name) {
    HistogramSnapshot h;
    h.unit = info.unit;
    h.count = FoldSlot(state, info.handle->base_slot_ + kHistogramBuckets);
    double sum = 0.0;
    for (const auto& shard : state.shards) {
      sum += shard->sums[info.handle->sum_index_].load(std::memory_order_relaxed);
    }
    h.sum = sum;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      uint64_t c = FoldSlot(state, info.handle->base_slot_ + static_cast<uint32_t>(b));
      if (c > 0) {
        h.buckets.emplace_back(b, c);
      }
    }
    snapshot.histograms.emplace(name, std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  State& state = GlobalState();
  MutexLock lock(state.mutex);
  for (const auto& shard : state.shards) {
    for (uint32_t s = 0; s < state.next_slot; ++s) {
      shard->slots[s].store(0, std::memory_order_relaxed);
    }
    for (uint32_t h = 0; h < state.next_histogram; ++h) {
      shard->sums[h].store(0.0, std::memory_order_relaxed);
    }
  }
  for (auto& gauge : state.gauge_values) {
    gauge.store(0.0, std::memory_order_relaxed);
  }
}

TelemetrySnapshot Snapshot() { return MetricsRegistry::Global().Snapshot(); }

void Reset() { MetricsRegistry::Global().Reset(); }

std::string TelemetrySnapshot::DeterministicSignature() const {
  return DeterministicSignature("");
}

std::string TelemetrySnapshot::DeterministicSignature(const std::string& prefix) const {
  auto matches = [&prefix](const std::string& name) {
    return name.compare(0, prefix.size(), prefix) == 0;
  };
  std::string out;
  for (const auto& [name, value] : counters) {
    if (!matches(name)) {
      continue;
    }
    out.append("counter ").append(name).append("=").append(std::to_string(value));
    out.push_back('\n');
  }
  for (const auto& [name, value] : gauges) {
    if (!matches(name)) {
      continue;
    }
    (void)value;  // gauge values are run configuration, not workload facts
    out.append("gauge ").append(name).push_back('\n');
  }
  for (const auto& [name, h] : histograms) {
    if (!matches(name)) {
      continue;
    }
    out.append("hist ").append(name).append(" unit=").append(UnitName(h.unit));
    if (h.unit != Unit::kSeconds) {
      out.append(" count=").append(std::to_string(h.count)).append(" buckets=");
      for (const auto& [b, c] : h.buckets) {
        out.append(std::to_string(b)).append(":").append(std::to_string(c));
        out.push_back(',');
      }
    }
    out.push_back('\n');
  }
  return out;
}

TelemetrySnapshot Delta(const TelemetrySnapshot& before, const TelemetrySnapshot& after) {
  TelemetrySnapshot delta;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    uint64_t base = it == before.counters.end() ? 0 : it->second;
    delta.counters[name] = value >= base ? value - base : 0;
  }
  delta.gauges = after.gauges;
  for (const auto& [name, h] : after.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) {
      delta.histograms[name] = h;
      continue;
    }
    const HistogramSnapshot& b = it->second;
    HistogramSnapshot d;
    d.unit = h.unit;
    d.count = h.count >= b.count ? h.count - b.count : 0;
    d.sum = h.sum - b.sum;
    std::map<int, uint64_t> base_buckets(b.buckets.begin(), b.buckets.end());
    for (const auto& [bucket, count] : h.buckets) {
      auto bit = base_buckets.find(bucket);
      uint64_t base = bit == base_buckets.end() ? 0 : bit->second;
      if (count > base) {
        d.buckets.emplace_back(bucket, count - base);
      }
    }
    delta.histograms.emplace(name, std::move(d));
  }
  return delta;
}

// --- spans ------------------------------------------------------------------

Span::Span(std::string name) : name_(std::move(name)), parent_(tls_current_span) {
  tls_current_span = this;
  ++tls_span_depth;
}

Span::~Span() { End(); }

void Span::End() {
  if (ended_) {
    return;
  }
  ended_ = true;
  tls_current_span = parent_;
  --tls_span_depth;
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::string metric = "span.";
  metric.append(name_).append(".wall_s");
  registry.GetHistogram(metric, Unit::kSeconds).Record(wall_.ElapsedSeconds());
}

int Span::Depth() { return tls_span_depth; }

std::string Span::Current() {
  return tls_current_span == nullptr ? std::string() : tls_current_span->name();
}

// --- driver integration -----------------------------------------------------

std::string ConsumeTelemetryFlag(int* argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--telemetry-out=", 16) == 0) {
      path = arg + 16;
      continue;
    }
    if (std::strcmp(arg, "--telemetry-out") == 0 && i + 1 < *argc) {
      path = argv[++i];
      continue;
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < *argc; ++i) {
    argv[i] = nullptr;
  }
  *argc = out;
  return path;
}

BuildStamp Build() { return {DETA_BUILD_TYPE, DETA_CXX_FLAGS}; }

std::string ToJson(const TelemetrySnapshot& snapshot) {
  BuildStamp build = Build();
  std::string out = "{\"version\":1,\"build\":{\"type\":";
  AppendJsonString(&out, build.type);
  out += ",\"cxx_flags\":";
  AppendJsonString(&out, build.cxx_flags);
  out += "},\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    out.append(std::to_string(value));
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":";
    AppendDouble(&out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out += ",";
    first = false;
    AppendJsonString(&out, name);
    out += ":{\"unit\":\"";
    out += UnitName(h.unit);
    out += "\",\"count\":";
    out.append(std::to_string(h.count));
    out += ",\"sum\":";
    AppendDouble(&out, h.sum);
    out += ",\"buckets\":[";
    bool bfirst = true;
    for (const auto& [b, c] : h.buckets) {
      if (!bfirst) out += ",";
      bfirst = false;
      out.push_back('[');
      out.append(std::to_string(b));
      out.push_back(',');
      out.append(std::to_string(c));
      out.push_back(']');
    }
    out += "]}";
  }
  out += "}}\n";
  return out;
}

bool WriteJsonFile(const TelemetrySnapshot& snapshot, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string json = ToJson(snapshot);
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  bool ok = written == json.size() && std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "telemetry: short write to %s\n", path.c_str());
  }
  return ok;
}

}  // namespace deta::telemetry
