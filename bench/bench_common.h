// Shared pieces of the bench binaries and ntbench: StandardConfig(), the
// paper-scale "standard study" (a scaled-down version of the paper's
// 45-system, 4-week collection) that the reproduction driver builds on,
// strict environment-knob parsers (the chaos campaign reads its knobs with
// them too), and ntbench's counting allocation hook and TraceScan
// fingerprint. Scale knobs via environment:
//   NTRACE_SYSTEMS_SCALE  multiplies per-category system counts (default 1)
//   NTRACE_DAYS           simulated days, a whole number in [1, 365]
//                         (default 1)
//   NTRACE_ACTIVITY       burst-rate multiplier (default 0.75)
//   NTRACE_CONTENT        initial-content multiplier (default 0.12)
//   NTRACE_SEED           fleet seed (default 1999)
//   NTRACE_THREADS        fleet worker threads (default 0 = all cores;
//                         output is bit-identical for every value)
//
// Durability / crash-recovery knobs (DESIGN.md §10):
//   NTRACE_SPOOL_DIR      enable the durable trace spool + checkpoint
//                         manifest in this directory (default off)
//   NTRACE_CRASH_KIND     arm a crash plan: worker-crash | torn-write |
//                         bit-flip | hang (default none)
//   NTRACE_CRASH_SYSTEM   1-based victim system id (default 1)
//   NTRACE_CRASH_AT       delivered-record count the crash fires at
//                         (default 1000)
//   NTRACE_CRASH_ATTEMPT  which simulation attempt crashes: 1 = first only,
//                         so the supervisor's restart succeeds; 0 = every
//                         attempt (default 1)
//
// Networked collection knobs (DESIGN.md §11):
//   NTRACE_NET            1 = collect over the loopback TCP service
//                         (default 0 = in-process; output is bit-identical
//                         either way)
//   NTRACE_NET_SHARDS     ingest shard threads (default 2)
//   NTRACE_NET_WINDOW     client sliding-window size in frames (default 64)
//   NTRACE_NET_FAULT_PROB per-frame probability for each sleep-free
//                         transport fault kind: reset, partial write,
//                         duplicate, reorder (default 0)
//   NTRACE_NET_CRASH_FRAMES  server self-crash after this many delivered
//                         frames (default 0 = never; recovery needs
//                         NTRACE_SPOOL_DIR)

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/analysis/trace_scan.h"
#include "src/study/study.h"

// Counting allocator hook (DESIGN.md §9). A bench that wants to report heap
// allocation counts invokes NTRACE_DEFINE_ALLOC_HOOK() once at namespace
// scope in its own translation unit; that replaces the binary's global
// operator new with a relaxed-atomic counting wrapper (one add per
// allocation -- noise-level next to the allocation itself) and makes
// ntrace::bench_alloc_count() return the running total. Only the defining
// binary pays for it; the hook is deliberately NOT defined here so ordinary
// benches keep the stock allocator.
// Every replaceable new/delete form is covered -- throwing, nothrow and
// over-aligned alike. Replacing only the throwing forms would leave e.g.
// std::stable_sort's get_temporary_buffer (nothrow new) paired with the
// hook's free(), which ASan reports as an alloc-dealloc mismatch.
#define NTRACE_DEFINE_ALLOC_HOOK()                                                       \
  namespace ntrace {                                                                     \
  std::atomic<size_t> g_bench_alloc_count{0};                                            \
  }                                                                                      \
  static void* NtraceCountedMalloc(std::size_t size) noexcept {                          \
    ::ntrace::g_bench_alloc_count.fetch_add(1, std::memory_order_relaxed);               \
    return std::malloc(size == 0 ? 1 : size);                                            \
  }                                                                                      \
  static void* NtraceCountedAlloc(std::size_t size) {                                    \
    if (void* p = NtraceCountedMalloc(size)) {                                           \
      return p;                                                                          \
    }                                                                                    \
    throw std::bad_alloc();                                                              \
  }                                                                                      \
  static void* NtraceCountedAlignedMalloc(std::size_t size, std::size_t align) noexcept { \
    ::ntrace::g_bench_alloc_count.fetch_add(1, std::memory_order_relaxed);               \
    if (align < sizeof(void*)) {                                                         \
      align = sizeof(void*);                                                             \
    }                                                                                    \
    void* p = nullptr;                                                                   \
    return posix_memalign(&p, align, size == 0 ? 1 : size) == 0 ? p : nullptr;           \
  }                                                                                      \
  static void* NtraceCountedAlignedAlloc(std::size_t size, std::size_t align) {          \
    if (void* p = NtraceCountedAlignedMalloc(size, align)) {                             \
      return p;                                                                          \
    }                                                                                    \
    throw std::bad_alloc();                                                              \
  }                                                                                      \
  void* operator new(std::size_t size) { return NtraceCountedAlloc(size); }              \
  void* operator new[](std::size_t size) { return NtraceCountedAlloc(size); }            \
  void* operator new(std::size_t size, const std::nothrow_t&) noexcept {                 \
    return NtraceCountedMalloc(size);                                                    \
  }                                                                                      \
  void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {               \
    return NtraceCountedMalloc(size);                                                    \
  }                                                                                      \
  void* operator new(std::size_t size, std::align_val_t align) {                         \
    return NtraceCountedAlignedAlloc(size, static_cast<std::size_t>(align));             \
  }                                                                                      \
  void* operator new[](std::size_t size, std::align_val_t align) {                       \
    return NtraceCountedAlignedAlloc(size, static_cast<std::size_t>(align));             \
  }                                                                                      \
  void* operator new(std::size_t size, std::align_val_t align,                           \
                     const std::nothrow_t&) noexcept {                                   \
    return NtraceCountedAlignedMalloc(size, static_cast<std::size_t>(align));            \
  }                                                                                      \
  void* operator new[](std::size_t size, std::align_val_t align,                         \
                       const std::nothrow_t&) noexcept {                                 \
    return NtraceCountedAlignedMalloc(size, static_cast<std::size_t>(align));            \
  }                                                                                      \
  void operator delete(void* p) noexcept { std::free(p); }                               \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }                  \
  void operator delete[](void* p) noexcept { std::free(p); }                             \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }                \
  void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }        \
  void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }      \
  void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }             \
  void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); } \
  void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }           \
  void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {              \
    std::free(p);                                                                        \
  }                                                                                      \
  void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {      \
    std::free(p);                                                                        \
  }                                                                                      \
  void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {    \
    std::free(p);                                                                        \
  }

namespace ntrace {

// Running global allocation count when NTRACE_DEFINE_ALLOC_HOOK() is in the
// binary; declared here so shared code can read it.
extern std::atomic<size_t> g_bench_alloc_count;
inline size_t bench_alloc_count() {
  return g_bench_alloc_count.load(std::memory_order_relaxed);
}

// Strict parse: the whole value must be consumed. A typo in a scale knob
// (NTRACE_ACTIVITY=0..5) silently running the default-sized bench would
// poison the recorded perf trajectory, so unparsable input warns on stderr
// and falls back.
inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    std::fprintf(stderr, "warning: %s=\"%s\" is not a number; using default %g\n", name, v,
                 fallback);
    return fallback;
  }
  return parsed;
}

// Full-width integer parse. EnvDouble/strtod round-trips through a double,
// which silently corrupts values above 2^53 -- seeds must not go through
// it. strtoull accepts a leading '-' (wrapping modulo 2^64); reject it.
// `base` is strtoull's: 0 also accepts the 0x form.
inline uint64_t EnvU64(const char* name, uint64_t fallback, int base = 10) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, base);
  if (end == v || *end != '\0' || std::strchr(v, '-') != nullptr) {
    std::fprintf(stderr, "warning: %s=\"%s\" is not a non-negative integer; using default %llu\n",
                 name, v, static_cast<unsigned long long>(fallback));
    return fallback;
  }
  return static_cast<uint64_t>(parsed);
}

// Strict bounded count knob (NTRACE_CHAOS_TRIALS=5). atoi-style parsing
// reads "5x" as 5 and "abc" as 0 without a word of complaint; here the
// whole value must parse and land in [min_value, max_value] or the binary
// warns and runs the default.
inline int EnvInt(const char* name, int fallback, int min_value, int max_value) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed < min_value || parsed > max_value) {
    std::fprintf(stderr, "warning: %s=\"%s\" is not an integer in [%d, %d]; using default %d\n",
                 name, v, min_value, max_value, fallback);
    return fallback;
  }
  return static_cast<int>(parsed);
}

// FNV-1a over every field of a TraceScan, CDF samples included. Used by the
// benches to assert that a store's scan is byte-identical to the scan of
// the rows it holds without a field-by-field gtest comparison. CDF samples are mixed in
// their post-Finalize order; identical record streams produce identical
// sample orders, so equality here is exactly the parity contract.
class ScanFingerprinter {
 public:
  void Mix(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void MixValue(const T& value) {
    Mix(&value, sizeof(value));
  }
  void MixCdf(const WeightedCdf& cdf) {
    MixValue(cdf.size());
    MixValue(cdf.total_weight());
    for (const auto& [value, weight] : cdf.samples()) {
      MixValue(value);
      MixValue(weight);
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

inline uint64_t ScanFingerprint(const TraceScan& s) {
  ScanFingerprinter fp;
  for (uint64_t v :
       {s.reads, s.writes, s.reads_512_or_4096, s.reads_small, s.reads_48k_plus, s.read_failures,
        s.write_failures, s.opens, s.open_failures, s.open_notfound, s.open_collision,
        s.directory_ops, s.control_ops, s.control_total, s.control_failures,
        s.volume_mounted_checks, s.seteof_ops, s.attributed, s.non_interactive, s.active_seconds,
        s.fastio_reads, s.irp_reads, s.fastio_writes, s.irp_writes, s.read_fallbacks,
        s.write_fallbacks, s.paging_reads, s.paging_read_bytes, s.paging_writes,
        s.paging_write_bytes, s.readahead_records, s.readahead_bytes, s.lazywrite_records,
        s.lazywrite_bytes}) {
    fp.MixValue(v);
  }
  // flushed_files is membership-only and FlatMap iteration order is
  // unspecified, so mix the sorted key set.
  std::vector<uint64_t> flushed;
  flushed.reserve(s.flushed_files.size());
  for (const auto& [file_object, unused] : s.flushed_files) {
    flushed.push_back(file_object);
  }
  std::sort(flushed.begin(), flushed.end());
  for (uint64_t file_object : flushed) {
    fp.MixValue(file_object);
  }
  for (const WeightedCdf* cdf :
       {&s.read_sizes, &s.write_sizes, &s.fastio_read_latency_us, &s.fastio_write_latency_us,
        &s.irp_read_latency_us, &s.irp_write_latency_us, &s.fastio_read_size, &s.fastio_write_size,
        &s.irp_read_size, &s.irp_write_size, &s.read_runs_by_count, &s.read_runs_by_bytes,
        &s.write_runs_by_count, &s.write_runs_by_bytes}) {
    fp.MixCdf(*cdf);
  }
  return fp.value();
}

inline StudyConfig StandardConfig() {
  StudyConfig config;
  // Default fleet mirrors the paper's 45 instrumented systems.
  const double sys_scale = EnvDouble("NTRACE_SYSTEMS_SCALE", 1.0);
  config.fleet.walk_up = std::max(1, static_cast<int>(10 * sys_scale));
  config.fleet.pool = std::max(1, static_cast<int>(12 * sys_scale));
  config.fleet.personal = std::max(1, static_cast<int>(14 * sys_scale));
  config.fleet.administrative = std::max(1, static_cast<int>(5 * sys_scale));
  config.fleet.scientific = std::max(1, static_cast<int>(4 * sys_scale));
  config.fleet.days = EnvInt("NTRACE_DAYS", 1, 1, 365);
  config.fleet.seed = EnvU64("NTRACE_SEED", 1999);
  config.fleet.activity_scale = EnvDouble("NTRACE_ACTIVITY", 0.75);
  config.fleet.content_scale = EnvDouble("NTRACE_CONTENT", 0.12);
  // Benches default to all cores: the parallel fleet is bit-identical to
  // the sequential one, so this only changes wall-clock.
  config.fleet.threads = static_cast<int>(EnvU64("NTRACE_THREADS", 0));
  const char* spool_dir = std::getenv("NTRACE_SPOOL_DIR");
  if (spool_dir != nullptr && *spool_dir != '\0') {
    config.fleet.durability.spool_dir = spool_dir;
  }
  const char* crash_kind = std::getenv("NTRACE_CRASH_KIND");
  if (crash_kind != nullptr && *crash_kind != '\0') {
    CrashPlan& crash = config.fleet.fault_config.crash;
    if (std::strcmp(crash_kind, "worker-crash") == 0) {
      crash.kind = CrashKind::kWorkerCrash;
    } else if (std::strcmp(crash_kind, "torn-write") == 0) {
      crash.kind = CrashKind::kTornWrite;
    } else if (std::strcmp(crash_kind, "bit-flip") == 0) {
      crash.kind = CrashKind::kBitFlip;
    } else if (std::strcmp(crash_kind, "hang") == 0) {
      crash.kind = CrashKind::kHang;
    } else {
      std::fprintf(stderr, "warning: NTRACE_CRASH_KIND=\"%s\" is not a crash kind; ignoring\n",
                   crash_kind);
    }
    if (crash.kind != CrashKind::kNone) {
      crash.system_id = static_cast<uint32_t>(EnvU64("NTRACE_CRASH_SYSTEM", 1));
      crash.at_event = EnvU64("NTRACE_CRASH_AT", 1000);
      crash.at_attempt = static_cast<int>(EnvU64("NTRACE_CRASH_ATTEMPT", 1));
    }
  }
  // Networked collection knobs (DESIGN.md §11). The merged output is
  // bit-identical with the socket on or off, so these only change how the
  // collection travels, never what it contains.
  if (EnvInt("NTRACE_NET", 0, 0, 1) == 1) {
    NetCollectionConfig& net = config.fleet.net;
    net.enabled = true;
    net.shards = EnvInt("NTRACE_NET_SHARDS", 2, 1, 64);
    net.window = EnvInt("NTRACE_NET_WINDOW", 64, 1, 4096);
    net.crash_after_frames = EnvU64("NTRACE_NET_CRASH_FRAMES", 0);
    // One probability fans out to the sleep-free transport fault kinds
    // (reset, partial write, duplicate, reorder); stalls and delays burn
    // wall clock, so scripted chaos opts into those via tests instead.
    const double fault_prob = EnvDouble("NTRACE_NET_FAULT_PROB", 0.0);
    net.transport_faults.reset_probability = fault_prob;
    net.transport_faults.partial_write_probability = fault_prob;
    net.transport_faults.duplicate_probability = fault_prob;
    net.transport_faults.reorder_probability = fault_prob;
  }
  return config;
}

}  // namespace ntrace

#endif  // BENCH_BENCH_COMMON_H_
