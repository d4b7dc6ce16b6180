// Process-wide observability: the ntrace metrics registry.
//
// The paper's headline results are counts the kernel kept about itself --
// FastIO vs IRP shares (section 10), cache hit ratios and read-ahead
// effectiveness (section 9) -- yet until this layer the simulator computed
// them only after-the-fact from trace records. The metrics registry gives
// every subsystem named, always-on counters that are cheap enough for the
// hottest paths and exportable live, the way a production serving stack
// exposes its internals.
//
// Primitives:
//   * Counter   -- monotonically increasing. Per-thread sharded: each
//     increment lands on one of kShards cache-line-sized slots selected by
//     a thread-local slot id, so the fleet worker pool never contends on a
//     shared cache line; Value() aggregates the shards on read.
//   * Gauge     -- a settable/addable signed value (e.g. retry backlog).
//   * Histogram -- fixed log2 buckets (upper bounds 1, 2, 4, ... 2^39,
//     +Inf) for latency/size distributions. Relaxed atomic buckets.
//
// All mutation is wait-free relaxed atomics; registration (name -> object)
// takes a mutex and is expected once per call site (instrument sites cache
// the returned reference in a function-local static bundle). Snapshots are
// consistent enough for monitoring: individual values are atomic, the set
// is not read under a global lock.
//
// The registry is process-wide (`MetricsRegistry::Global()`) and cumulative.
// Consumers that need per-run values (RunFleet, TraceReplayer::Replay)
// snapshot before and after and keep the delta -- see
// MetricsSnapshot::DeltaFrom. `NTRACE_METRICS=0` (or
// SetMetricsEnabled(false)) turns every mutation into an early return so
// the overhead of the layer itself is measurable (budget < 3% of
// records/sec; DESIGN.md §8 says how to measure it).

#ifndef SRC_METRICS_METRICS_H_
#define SRC_METRICS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ntrace {

namespace metrics_internal {

// Runtime kill switch. Initialized from NTRACE_METRICS by
// MetricsRegistry::Global(); flippable at any time (fleet_determinism_test
// flips it to prove the layer does not perturb a run).
inline std::atomic<bool> g_enabled{true};

// Dense per-thread slot id, assigned on a thread's first metric touch.
// The sentinel + constant-initialized thread_local avoids the per-access
// init guard a function-local `thread_local const` would pay.
size_t AllocateShardSlot();
inline constexpr size_t kUnassignedSlot = static_cast<size_t>(-1);
inline thread_local size_t t_shard_slot = kUnassignedSlot;
inline size_t ThreadShardSlot() {
  size_t slot = t_shard_slot;
  if (slot == kUnassignedSlot) [[unlikely]] {
    slot = t_shard_slot = AllocateShardSlot();
  }
  return slot;
}

}  // namespace metrics_internal

inline bool MetricsEnabled() {
  return metrics_internal::g_enabled.load(std::memory_order_relaxed);
}
void SetMetricsEnabled(bool enabled);

// Monotonic counter, sharded across cache lines by thread.
class Counter {
 public:
  static constexpr size_t kShards = 16;  // Power of two.

  void Inc(uint64_t n = 1) {
    if (!MetricsEnabled()) {
      return;
    }
    shards_[metrics_internal::ThreadShardSlot() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  // Sum over shards. Monotone per shard, so concurrent reads see a value
  // between the counts at the start and end of the read.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  std::string help_;
  Shard shards_[kShards];
};

// Signed instantaneous value.
class Gauge {
 public:
  void Set(int64_t v) {
    if (MetricsEnabled()) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  void Add(int64_t delta) {
    if (MetricsEnabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, std::string help) : name_(std::move(name)), help_(std::move(help)) {}

  std::string name_;
  std::string help_;
  std::atomic<int64_t> value_{0};
};

// Fixed log2-bucket histogram for sizes and latencies.
class Histogram {
 public:
  // Finite upper bounds 2^0 .. 2^(kNumBounds-1); one more bucket for +Inf.
  static constexpr size_t kNumBounds = 40;
  static constexpr size_t kNumBuckets = kNumBounds + 1;

  static constexpr uint64_t BucketUpperBound(size_t i) { return uint64_t{1} << i; }

  // Index of the bucket counting `v`: the first i with v <= 2^i, or the
  // overflow bucket. Power-of-two values land exactly on their own bound.
  // Inline: an out-of-line call here is measurable on the copy-read path.
  static size_t BucketIndex(uint64_t v) {
    if (v <= 1) {
      return 0;
    }
    const size_t i = static_cast<size_t>(std::bit_width(v - 1));
    return i < kNumBounds ? i : kNumBounds;
  }

  void Observe(uint64_t v) {
    if (!MetricsEnabled()) {
      return;
    }
    // Two fetch_adds, not three: the observation count is the bucket sum,
    // derived on read (Count()) instead of maintained on the hot path.
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t Count() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::string help)
      : name_(std::move(name)), help_(std::move(help)) {}

  std::string name_;
  std::string help_;
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

// Point-in-time copy of a registry, name-sorted. Also the vehicle for
// per-run deltas (FleetResult::metrics) and for JSON / Prometheus export.
struct CounterSnapshot {
  std::string name;
  std::string help;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::string help;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string help;
  uint64_t count = 0;
  uint64_t sum = 0;
  // Non-cumulative per-bucket counts, size Histogram::kNumBuckets.
  std::vector<uint64_t> buckets;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Lookup helpers; a missing name reads as zero / nullptr.
  uint64_t CounterValue(std::string_view name) const;
  int64_t GaugeValue(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;

  // Counter and histogram values minus `base` (entries absent from `base`
  // keep their value); gauges keep their current value -- a gauge is a
  // level, not a flow. Used to scope the cumulative global registry to one
  // fleet run.
  MetricsSnapshot DeltaFrom(const MetricsSnapshot& base) const;

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {"count": c,
  // "sum": s, "buckets": [[le, n], ..., ["+Inf", n]]}}} with name-sorted
  // keys and sparse (non-zero) buckets.
  std::string ToJson() const;

  // Prometheus text exposition format (# HELP / # TYPE, cumulative
  // histogram buckets with le labels).
  std::string ToPrometheusText() const;
};

// Named metric registry. Get* registers on first use and returns the same
// object for the same name thereafter. Names must be unique across kinds
// (Prometheus namespace rules); a kind collision asserts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // The process-wide registry every subsystem instruments into. First call
  // applies the NTRACE_METRICS environment knob.
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, std::string_view help = "");
  Gauge& GetGauge(std::string_view name, std::string_view help = "");
  Histogram& GetHistogram(std::string_view name, std::string_view help = "");

  MetricsSnapshot Snapshot() const;

  size_t size() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  mutable std::mutex mu_;
  std::map<std::string, Kind, std::less<>> kinds_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ntrace

#endif  // SRC_METRICS_METRICS_H_
