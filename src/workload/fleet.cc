#include "src/workload/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/base/parallel.h"
#include "src/net/collection_service.h"
#include "src/net/net_client.h"
#include "src/trace/spool.h"

namespace ntrace {

namespace {

// Fleet-runner efficiency counters (DESIGN.md §8). Wall-clock based: they
// describe the simulator's own performance, never simulated time, and are
// deliberately excluded from the bit-identical output contract.
struct FleetMetrics {
  Counter& runs;
  Counter& systems;
  Counter& system_records;
  Counter& system_wall_us_sum;
  Counter& drain_wall_us_sum;
  Counter& merge_wall_us_sum;
  Histogram& system_wall_us;
  Gauge& last_merge_wall_us;
  // Crash-recovery supervisor counters (DESIGN.md §10).
  Counter& worker_crashes;
  Counter& worker_restarts;
  Counter& watchdog_cancellations;
  Counter& segments_sealed;
  Counter& systems_resumed;
  Counter& systems_salvaged;
  Counter& systems_failed;

  static FleetMetrics& Get() {
    static FleetMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return FleetMetrics{
          r.GetCounter("ntrace_fleet_runs_total", "RunFleet invocations"),
          r.GetCounter("ntrace_fleet_systems_simulated_total",
                       "Systems simulated to completion by fleet workers"),
          r.GetCounter("ntrace_fleet_system_records_total",
                       "Trace records emitted across simulated systems"),
          r.GetCounter("ntrace_fleet_system_wall_us_total",
                       "Wall-clock microseconds workers spent simulating systems "
                       "(with ntrace_fleet_system_records_total: per-worker records/sec)"),
          r.GetCounter("ntrace_fleet_drain_wall_us_total",
                       "Wall-clock microseconds spent stopping the loopback service and "
                       "completing (sorting, spilling) its shards"),
          r.GetCounter("ntrace_fleet_merge_wall_us_total",
                       "Wall-clock microseconds spent merging completed shards into the "
                       "fleet's trace (rows or merged.ntx)"),
          r.GetHistogram("ntrace_fleet_system_wall_us",
                         "Wall-clock microseconds to simulate one system"),
          r.GetGauge("ntrace_fleet_last_merge_wall_us",
                     "Wall-clock microseconds of the most recent merge"),
          r.GetCounter("ntrace_fleet_worker_crashes_total",
                       "Worker crashes observed by the fleet supervisor"),
          r.GetCounter("ntrace_fleet_worker_restarts_total",
                       "Crashed workers restarted by the fleet supervisor"),
          r.GetCounter("ntrace_fleet_watchdog_cancellations_total",
                       "Hung workers cancelled by the deadline watchdog"),
          r.GetCounter("ntrace_fleet_segments_sealed_total",
                       "Spool segments sealed as complete checkpoints"),
          r.GetCounter("ntrace_fleet_systems_resumed_total",
                       "Systems restored from sealed spool segments"),
          r.GetCounter("ntrace_fleet_systems_salvaged_total",
                       "Systems restored from damaged spool segments (salvage mode)"),
          r.GetCounter("ntrace_fleet_systems_failed_total",
                       "Systems dropped from the merged output (restarts exhausted, "
                       "agent, session or spill lost)"),
      };
    }();
    return m;
  }
};

int64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                               since)
      .count();
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SumOverSystems(const std::vector<SystemRunStats>& systems,
                        uint64_t SystemRunStats::*field) {
  uint64_t n = 0;
  for (const SystemRunStats& s : systems) {
    n += s.*field;
  }
  return n;
}

}  // namespace

CacheStats FleetResult::TotalCache() const {
  CacheStats total;
  for (const SystemRunStats& s : systems) {
    total.Accumulate(s.cache);
  }
  return total;
}

uint64_t FleetResult::TotalFastIoReadAttempts() const {
  return SumOverSystems(systems, &SystemRunStats::fastio_read_attempts);
}

uint64_t FleetResult::TotalFastIoReadHits() const {
  return SumOverSystems(systems, &SystemRunStats::fastio_read_hits);
}

uint64_t FleetResult::TotalFastIoWriteAttempts() const {
  return SumOverSystems(systems, &SystemRunStats::fastio_write_attempts);
}

uint64_t FleetResult::TotalFastIoWriteHits() const {
  return SumOverSystems(systems, &SystemRunStats::fastio_write_hits);
}

namespace {

// ---------------------------------------------------------------------------
// Config fingerprint.
//
// Sealed spool segments are only trusted for resume when they were produced
// by an equivalent fleet configuration: everything that shapes the simulated
// stream is folded into an FNV-1a fingerprint stored in every segment
// header. Deliberately excluded: `threads` (the output contract makes it
// irrelevant), the durability knobs themselves, and the crash plan -- a run
// resumed with the crash disabled must still match the segments the crashed
// run sealed.
// ---------------------------------------------------------------------------

struct Fingerprint {
  uint64_t h = 1469598103934665603ULL;

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixPlan(const FaultPlan& p) {
    MixDouble(p.probability);
    Mix(static_cast<uint64_t>(p.burst_period.ticks()));
    Mix(static_cast<uint64_t>(p.burst_length.ticks()));
    MixDouble(p.burst_probability);
    MixDouble(p.ack_loss_fraction);
    Mix(p.outages.size());
    for (const auto& [start, end] : p.outages) {
      Mix(static_cast<uint64_t>(start.ticks()));
      Mix(static_cast<uint64_t>(end.ticks()));
    }
  }
};

uint64_t FleetConfigFingerprint(const FleetConfig& c) {
  Fingerprint f;
  f.Mix(0x4E54464C54563032ULL);  // Fingerprint schema tag, bump on change.
  f.Mix(static_cast<uint64_t>(c.walk_up));
  f.Mix(static_cast<uint64_t>(c.pool));
  f.Mix(static_cast<uint64_t>(c.personal));
  f.Mix(static_cast<uint64_t>(c.administrative));
  f.Mix(static_cast<uint64_t>(c.scientific));
  f.Mix(static_cast<uint64_t>(c.days));
  f.Mix(c.seed);
  f.MixDouble(c.activity_scale);
  f.MixDouble(c.content_scale);

  const CacheConfig& cc = c.cache_config;
  f.Mix(cc.capacity_pages);
  f.Mix(cc.read_ahead_granularity);
  f.Mix(cc.boosted_granularity);
  f.Mix(cc.boost_threshold);
  f.Mix(static_cast<uint64_t>(cc.sequential_detect_count));
  f.Mix(cc.fuzzy_mask);
  f.Mix(cc.read_ahead_enabled ? 1 : 0);
  f.Mix(static_cast<uint64_t>(cc.lazy_write_period.ticks()));
  f.MixDouble(cc.lazy_write_fraction);
  f.Mix(cc.max_write_run_bytes);
  f.Mix(static_cast<uint64_t>(cc.read_close_delay_min.ticks()));
  f.Mix(static_cast<uint64_t>(cc.read_close_delay_max.ticks()));
  f.Mix(static_cast<uint64_t>(cc.copy_fixed.ticks()));
  f.MixDouble(cc.copy_ns_per_byte);

  const FsOptions& fo = c.fs_options;
  f.Mix(static_cast<uint64_t>(fo.metadata_cost_per_component.ticks()));
  f.Mix(static_cast<uint64_t>(fo.control_op_cost.ticks()));
  f.Mix(fo.directory_chunk);

  const TraceFilterOptions& tf = c.filter_options;
  f.Mix(tf.passthrough_fastio ? 1 : 0);
  f.Mix(static_cast<uint64_t>(tf.record_cost.ticks()));

  const ShipmentPolicy& sp = c.shipment_policy;
  f.Mix(static_cast<uint64_t>(sp.max_attempts));
  f.Mix(static_cast<uint64_t>(sp.initial_backoff.ticks()));
  f.MixDouble(sp.backoff_multiplier);
  f.Mix(static_cast<uint64_t>(sp.max_backoff.ticks()));
  f.MixDouble(sp.jitter);
  f.Mix(sp.retry_queue_limit);
  f.Mix(sp.shed_watermark);
  f.MixDouble(sp.shed_keep_probability);

  f.Mix(c.fault_config.seed);
  f.MixPlan(c.fault_config.shipment);
  f.MixPlan(c.fault_config.disk_read);
  f.MixPlan(c.fault_config.disk_write);
  return f.h;
}

// ---------------------------------------------------------------------------
// Completion blob.
//
// The spool stores it as an opaque kCompletion payload; the encoding lives
// here because SystemRunStats is a workload-layer type the trace layer must
// not know about. Snapshots are deliberately not persisted (they are bulky
// and only consumed by snapshot-growth analyses of live runs); a resumed
// system reports an empty snapshot series.
// ---------------------------------------------------------------------------

constexpr uint32_t kCompletionVersion = 1;
// The stats structs travel as raw host-layout bytes.
static_assert(std::is_trivially_copyable_v<CacheStats> && std::is_trivially_copyable_v<VmStats> &&
              std::is_trivially_copyable_v<FsStats>);

std::vector<uint8_t> EncodeCompletion(
    const SystemRunStats& s, const std::vector<std::pair<uint32_t, std::string>>& names) {
  std::vector<uint8_t> out;
  PutScalar<uint32_t>(&out, kCompletionVersion);
  PutScalar<uint32_t>(&out, s.system_id);
  PutScalar<uint32_t>(&out, static_cast<uint32_t>(s.category));
  PutBytes(&out, &s.cache, sizeof(s.cache));
  PutBytes(&out, &s.vm, sizeof(s.vm));
  PutBytes(&out, &s.local_fs, sizeof(s.local_fs));
  PutBytes(&out, &s.remote_fs, sizeof(s.remote_fs));
  for (uint64_t v : {s.fastio_read_attempts, s.fastio_read_hits, s.fastio_write_attempts,
                     s.fastio_write_hits, s.irp_count, s.trace_records, s.trace_drops,
                     s.sessions_run, s.trace_emitted, s.trace_shed, s.trace_lost,
                     s.trace_unresolved, s.shipments_sent, s.shipment_attempts,
                     s.shipment_failures, s.shipments_abandoned, s.peak_retry_backlog,
                     s.disk_read_errors, s.disk_write_errors, s.paging_retries}) {
    PutScalar<uint64_t>(&out, v);
  }
  PutScalar<uint32_t>(&out, static_cast<uint32_t>(s.abandoned_shipments.size()));
  for (const auto& [sequence, count] : s.abandoned_shipments) {
    PutScalar<uint64_t>(&out, sequence);
    PutScalar<uint64_t>(&out, count);
  }
  PutScalar<uint32_t>(&out, static_cast<uint32_t>(names.size()));
  for (const auto& [pid, name] : names) {
    PutScalar<uint32_t>(&out, pid);
    PutScalar<uint32_t>(&out, static_cast<uint32_t>(name.size()));
    PutBytes(&out, name.data(), name.size());
  }
  return out;
}

bool DecodeCompletion(const std::vector<uint8_t>& in, SystemRunStats* s,
                      std::vector<std::pair<uint32_t, std::string>>* names) {
  const uint8_t* data = in.data();
  const size_t size = in.size();
  size_t pos = 0;
  uint32_t version = 0, system_id = 0, category = 0;
  if (!GetScalar(data, size, &pos, &version) || version != kCompletionVersion ||
      !GetScalar(data, size, &pos, &system_id) || !GetScalar(data, size, &pos, &category) ||
      category >= static_cast<uint32_t>(kNumUsageCategories)) {
    return false;
  }
  s->system_id = system_id;
  s->category = static_cast<UsageCategory>(category);
  if (!GetBytes(data, size, &pos, &s->cache, sizeof(s->cache)) ||
      !GetBytes(data, size, &pos, &s->vm, sizeof(s->vm)) ||
      !GetBytes(data, size, &pos, &s->local_fs, sizeof(s->local_fs)) ||
      !GetBytes(data, size, &pos, &s->remote_fs, sizeof(s->remote_fs))) {
    return false;
  }
  for (uint64_t* v : {&s->fastio_read_attempts, &s->fastio_read_hits, &s->fastio_write_attempts,
                      &s->fastio_write_hits, &s->irp_count, &s->trace_records, &s->trace_drops,
                      &s->sessions_run, &s->trace_emitted, &s->trace_shed, &s->trace_lost,
                      &s->trace_unresolved, &s->shipments_sent, &s->shipment_attempts,
                      &s->shipment_failures, &s->shipments_abandoned, &s->peak_retry_backlog,
                      &s->disk_read_errors, &s->disk_write_errors, &s->paging_retries}) {
    if (!GetScalar(data, size, &pos, v)) {
      return false;
    }
  }
  uint32_t abandoned = 0;
  if (!GetScalar(data, size, &pos, &abandoned) || abandoned > size) {
    return false;
  }
  s->abandoned_shipments.clear();
  s->abandoned_shipments.reserve(abandoned);
  for (uint32_t i = 0; i < abandoned; ++i) {
    uint64_t sequence = 0, count = 0;
    if (!GetScalar(data, size, &pos, &sequence) || !GetScalar(data, size, &pos, &count)) {
      return false;
    }
    s->abandoned_shipments.emplace_back(sequence, count);
  }
  uint32_t name_count = 0;
  if (!GetScalar(data, size, &pos, &name_count) || name_count > size) {
    return false;
  }
  names->clear();
  names->reserve(name_count);
  for (uint32_t i = 0; i < name_count; ++i) {
    uint32_t pid = 0, len = 0;
    if (!GetScalar(data, size, &pos, &pid) || !GetScalar(data, size, &pos, &len) ||
        size - pos < len) {
      return false;
    }
    names->emplace_back(pid, std::string(reinterpret_cast<const char*>(data + pos), len));
    pos += len;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Worker/shard plumbing.
// ---------------------------------------------------------------------------

// Records per extent in the per-system columnar spills. merged.ntx copies
// the spills' extent frames verbatim, so this is its extent capacity too.
constexpr uint32_t kSpillExtentRecords = 4096;

// A shard's one lifecycle. Whatever produces a system -- live simulation, a
// sealed segment, the loopback service -- hands the shard to CompleteShard,
// and the merge takes only completed shards.
enum class ShardState : uint8_t {
  kPending,   // Not produced yet: the simulate stage runs it.
  kShipped,   // Net mode: stream sealed at the service, records not yet taken.
  kComplete,  // Sorted (and, columnar, spilled): goes to the merge.
  kFailed,    // Given up and counted in systems_failed: absent from the output.
};

// Everything one worker produces for one system. Workers never touch
// shared mutable state on the hot path: each system traces into its own
// CollectionServer shard, and the main thread merges shards in system-id
// order after the pool joins, so the merged output is independent of
// scheduling.
struct SystemShard {
  CollectionServer server;
  SystemRunStats stats;
  // (pid, image name) in the system's own harvest order, preserved so the
  // merged process map sees the same insertion sequence as a sequential
  // run (the map serializes in insertion-dependent order).
  std::vector<std::pair<uint32_t, std::string>> process_names;
  ShardState state = ShardState::kPending;
  uint64_t records_salvaged = 0;
  uint64_t records_lost_to_corruption = 0;
  // Columnar mode: the shard's sorted records were written to this extent
  // segment and the row vector freed (names stay resident).
  std::string spill_path;
};

// Columnar mode: spills a shard's time-sorted records to its per-system
// extent segment and frees the row vector. On a write failure the rows are
// kept and false is returned.
bool SpillShardColumnar(SystemShard* shard, const std::string& dir, uint64_t fingerprint) {
  TraceSet& collected = shard->server.Finish();  // Idempotent; sorted.
  ExtentStoreWriter writer;
  const std::string path = dir + "/sys" + std::to_string(shard->stats.system_id) + ".ntx";
  if (!writer.Open(path, kSpillExtentRecords, fingerprint) ||
      !writer.AppendRecords(collected.records.data(), collected.records.size()) ||
      !writer.Seal()) {
    return false;
  }
  writer.Close();
  shard->spill_path = path;
  collected.records.clear();
  collected.records.shrink_to_fit();
  return true;
}

// Thrown by SpoolingSink when an armed crash plan fires; caught by the
// supervisor, never escapes RunFleet.
struct WorkerCrashSignal {
  CrashKind kind;
};

// Per-worker liveness state shared with the watchdog thread.
struct WorkerHeartbeat {
  std::atomic<bool> active{false};
  std::atomic<int64_t> last_progress_us{0};
  std::atomic<bool> cancel{false};
};

// Wraps a shard's CollectionServer: every delivery is (optionally) handed to
// the durable spool before it reaches the server, the worker heartbeat is
// advanced, and an armed crash plan is evaluated against the running
// delivered-record count -- a deterministic event clock, so the crash point
// is independent of wall time, thread count and scheduling.
class SpoolingSink final : public TraceSink {
 public:
  SpoolingSink(TraceSink& inner, SpoolWriter* spool, const CrashPlan* crash,
               WorkerHeartbeat* heart)
      : inner_(inner), spool_(spool), crash_(crash), heart_(heart) {}

  void DeliverShipment(const ShipmentHeader& header, std::vector<TraceRecord> records) override {
    if (spool_ != nullptr) {
      spool_->AppendShipment(header, records);
    }
    const uint64_t n = records.size();
    inner_.DeliverShipment(header, std::move(records));
    Progress(n);
  }
  void DeliverName(NameRecord name) override {
    if (spool_ != nullptr) {
      spool_->AppendName(name);
    }
    inner_.DeliverName(std::move(name));
    Progress(0);
  }

 private:
  void Progress(uint64_t records) {
    delivered_ += records;
    if (heart_ != nullptr) {
      heart_->last_progress_us.store(NowMicros(), std::memory_order_release);
    }
    if (crash_ != nullptr && !fired_ && delivered_ >= crash_->at_event) {
      fired_ = true;
      if (crash_->kind == CrashKind::kHang && heart_ != nullptr) {
        // Stop making progress until the watchdog cancels us. Bounded so a
        // disabled watchdog degrades to a slow crash, never a stuck test.
        const auto start = std::chrono::steady_clock::now();
        while (!heart_->cancel.load(std::memory_order_acquire) &&
               ElapsedMicros(start) < 60 * 1000 * 1000) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      throw WorkerCrashSignal{crash_->kind};
    }
  }

  TraceSink& inner_;
  SpoolWriter* spool_;
  const CrashPlan* crash_;
  WorkerHeartbeat* heart_;
  uint64_t delivered_ = 0;
  bool fired_ = false;
};

// Cancels workers whose heartbeat stalls past the deadline. The cancel flag
// is only honoured by the hang fault's spin loop today, but the watchdog is
// generic: any cooperative cancellation point can consult it.
class Watchdog {
 public:
  Watchdog(std::vector<WorkerHeartbeat>* hearts, double deadline_s,
           std::atomic<uint64_t>* cancellations)
      : hearts_(hearts),
        deadline_us_(static_cast<int64_t>(deadline_s * 1e6)),
        cancellations_(cancellations) {
    if (deadline_us_ > 0) {
      thread_ = std::jthread([this](std::stop_token stop) { Loop(stop); });
    }
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void Loop(std::stop_token stop) {
    const auto poll = std::chrono::microseconds(
        std::clamp<int64_t>(deadline_us_ / 8, int64_t{1000}, int64_t{250000}));
    std::mutex mu;
    std::condition_variable_any wake;  // Woken early only by the stop request.
    std::unique_lock<std::mutex> lock(mu);
    while (!wake.wait_for(lock, stop, poll, [&stop] { return stop.stop_requested(); })) {
      const int64_t now = NowMicros();
      for (WorkerHeartbeat& h : *hearts_) {
        if (h.active.load(std::memory_order_acquire) &&
            !h.cancel.load(std::memory_order_relaxed) &&
            now - h.last_progress_us.load(std::memory_order_acquire) > deadline_us_) {
          h.cancel.store(true, std::memory_order_release);
          cancellations_->fetch_add(1, std::memory_order_relaxed);
          FleetMetrics::Get().watchdog_cancellations.Inc();
        }
      }
    }
  }

  std::vector<WorkerHeartbeat>* hearts_;
  int64_t deadline_us_;
  std::atomic<uint64_t>* cancellations_;
  std::jthread thread_;  // Declared last: stopped and joined before the members it reads go.
};

// Post-crash segment damage. A plain worker crash leaves the segment exactly
// as the writer's final flush left it (a clean frame boundary); the torn
// and bit-flip kinds model the failure ending mid-sector or corrupting the
// medium. Damage offsets are derived from the file size alone, so a given
// crash point always damages the same bytes.
void ApplyCrashDamage(const std::string& path, const CrashPlan& plan) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec || size <= kSpoolFileHeaderSize) {
    return;
  }
  if (plan.kind == CrashKind::kTornWrite) {
    const uint64_t body = size - kSpoolFileHeaderSize;
    const uint64_t tear = std::min<uint64_t>(std::max<uint32_t>(plan.tear_bytes, 1), body);
    fs::resize_file(path, size - tear, ec);
  } else if (plan.kind == CrashKind::kBitFlip) {
    const long offset =
        static_cast<long>(kSpoolFileHeaderSize + (size - kSpoolFileHeaderSize) / 2);
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    if (f == nullptr) {
      return;
    }
    int byte = EOF;
    if (std::fseek(f, offset, SEEK_SET) == 0 && (byte = std::fgetc(f)) != EOF) {
      std::fseek(f, offset, SEEK_SET);
      std::fputc(byte ^ (1 << (plan.flip_bit % 8)), f);
    }
    std::fclose(f);
  }
}

// Supervisor-shared state for one RunFleet invocation: the systems and
// their shards in system-id order, plus what the stages count.
struct FleetRunContext {
  explicit FleetRunContext(const FleetConfig& c)
      : config(c),
        fingerprint(FleetConfigFingerprint(c)),
        options(FleetSystemOptions(c)),
        shards(options.size()) {
    if (!config.columnar_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(config.columnar_dir, ec);
    }
  }

  std::string SegmentPath(uint32_t system_id) const {
    return config.durability.spool_dir + "/" + SpoolSegmentName(system_id);
  }

  const FleetConfig& config;
  const uint64_t fingerprint;
  const std::vector<SystemOptions> options;
  std::vector<SystemShard> shards;
  // Completed-system checkpoint log, appended under the lock (the segment
  // files themselves are per-worker and need no locking). A writer that is
  // not open refuses appends.
  std::mutex manifest_mu;
  SpoolWriter manifest;

  std::atomic<uint64_t> systems_simulated{0};
  std::atomic<uint64_t> systems_resumed{0};
  std::atomic<uint64_t> systems_salvaged{0};
  std::atomic<uint64_t> systems_failed{0};
  std::atomic<uint64_t> worker_crashes{0};
  std::atomic<uint64_t> worker_restarts{0};
  std::atomic<uint64_t> watchdog_cancellations{0};
  std::atomic<uint64_t> segments_sealed{0};
  std::atomic<uint64_t> partial_records_salvageable{0};
};

// The loopback collection tier of one run (DESIGN.md §11). With crash
// injection armed, a supervisor thread brings the service back up on the
// same port after each injected crash, and the agents' session layer
// resumes from the durable watermark.
struct LoopbackTransport {
  explicit LoopbackTransport(CollectionService::Options options) : service(std::move(options)) {}

  CollectionService service;
  // Agent-side accounting (the service keeps its own).
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> faults{0};
  std::atomic<uint64_t> agent_failures{0};
  std::atomic<uint64_t> restarts{0};  // By the supervisor.
  std::jthread supervisor;            // Declared last: it uses the members above.
};

// Gives a system up: its shard stays out of the merge, and the run says so.
void FailShard(FleetRunContext* ctx, SystemShard* shard) {
  shard->state = ShardState::kFailed;
  ctx->systems_failed.fetch_add(1, std::memory_order_relaxed);
  FleetMetrics::Get().systems_failed.Inc();
}

// The completion step every finished shard passes before the merge, live,
// resumed or taken from the loopback service: sort it and, in columnar
// mode, spill it at once. In-process and resumed shards spill on their own,
// so their record memory does not accumulate across systems; net shards do
// not get that bound, because the service holds every session's rows until
// the drain. A failed spill is retried once before the system is given up.
// Thread-safe across distinct shards.
void CompleteShard(FleetRunContext* ctx, SystemShard* shard) {
  shard->server.Finish();  // Idempotent; live shards were sorted on their worker.
  const std::string& dir = ctx->config.columnar_dir;
  if (!dir.empty() && !SpillShardColumnar(shard, dir, ctx->fingerprint) &&
      !SpillShardColumnar(shard, dir, ctx->fingerprint)) {
    FailShard(ctx, shard);
    return;
  }
  shard->state = ShardState::kComplete;
}

// Counts a segment sealed by this run and logs it in the checkpoint
// manifest: a separate file, so a later salvage of a damaged seal still
// knows what the live run collected.
void LogSealedSegment(FleetRunContext* ctx, uint32_t system_id, uint64_t collected) {
  ctx->segments_sealed.fetch_add(1, std::memory_order_relaxed);
  FleetMetrics::Get().segments_sealed.Inc();
  SpoolManifestEntry entry;
  entry.system_id = system_id;
  entry.records_collected = collected;
  entry.segment_file = SpoolSegmentName(system_id);
  std::lock_guard<std::mutex> lock(ctx->manifest_mu);
  ctx->manifest.AppendManifestEntry(entry);
}

void SimulateSystem(const SystemOptions& options, SystemShard* shard, TraceSink& sink,
                    bool reserve = true) {
  const auto start = std::chrono::steady_clock::now();
  // Workload-derived ingest reserve (DESIGN.md §9): a standard-activity
  // system emits on the order of 70k records per simulated day, scaling
  // roughly linearly with the activity knob. Pre-sizing the shard's record
  // store keeps steady-state shipment delivery free of vector reallocation;
  // the cap bounds the up-front commitment for extreme configurations.
  // Skipped in net mode, where the shard's local server receives nothing
  // (the service's per-session server does the collecting).
  if (reserve) {
    const double estimated =
        70000.0 * std::max(options.days, 1) * std::max(options.activity_scale, 0.1);
    shard->server.ReserveRecords(
        std::min(static_cast<size_t>(estimated), static_cast<size_t>(1) << 20));
  }
  SimulatedSystem system(options, sink);
  shard->stats = system.Run();
  for (const auto& [pid, info] : system.processes().all()) {
    shard->process_names.emplace_back(pid, info.image_name);
  }
  // Time-sort this shard's stream while still on the worker; the merge
  // then only combines already-sorted runs.
  shard->server.Finish();
  FleetMetrics& metrics = FleetMetrics::Get();
  const int64_t wall_us = ElapsedMicros(start);
  metrics.systems.Inc();
  metrics.system_records.Inc(shard->stats.trace_emitted);
  metrics.system_wall_us_sum.Inc(static_cast<uint64_t>(wall_us));
  metrics.system_wall_us.Observe(static_cast<uint64_t>(wall_us));
}

// Runs one system under the crash supervisor: spool every delivery, catch an
// injected crash, damage + salvage-scan the partial segment, and restart
// from scratch (the pre-drawn seed makes a restart reproduce the identical
// stream, so "resume" for a live system is simply "re-run"). On success the
// segment is sealed and logged in the checkpoint manifest; false means the
// restarts ran out.
bool RunSystemWithRecovery(const SystemOptions& options, SystemShard* shard,
                           FleetRunContext* ctx, WorkerHeartbeat* heart) {
  const CrashPlan& crash = ctx->config.fault_config.crash;
  const bool victim = crash.enabled() && crash.system_id == options.system_id;
  const bool durable = ctx->config.durability.enabled();
  const std::string segment = durable ? ctx->SegmentPath(options.system_id) : std::string();
  const int max_restarts = std::max(ctx->config.durability.max_restarts, 0);
  FleetMetrics& metrics = FleetMetrics::Get();
  for (int attempt = 1;; ++attempt) {
    SystemShard fresh;
    SpoolWriter writer;
    if (durable) {
      // A spool that cannot be opened degrades the system to non-durable
      // rather than failing the run.
      writer.Open(segment, options.system_id, ctx->fingerprint);
    }
    const bool armed = victim && (crash.at_attempt == 0 || attempt == crash.at_attempt);
    heart->cancel.store(false, std::memory_order_release);
    heart->last_progress_us.store(NowMicros(), std::memory_order_release);
    heart->active.store(true, std::memory_order_release);
    SpoolingSink sink(fresh.server, writer.ok() ? &writer : nullptr, armed ? &crash : nullptr,
                      heart);
    try {
      SimulateSystem(options, &fresh, sink);
      heart->active.store(false, std::memory_order_release);
      if (writer.ok()) {
        const uint64_t collected = fresh.server.set().records.size();
        const std::vector<uint8_t> blob = EncodeCompletion(fresh.stats, fresh.process_names);
        writer.AppendCompletion(blob.data(), blob.size());
        writer.Seal(collected);
        const bool sealed = writer.ok();
        writer.Close();
        if (sealed) {
          LogSealedSegment(ctx, options.system_id, collected);
        }
      }
      *shard = std::move(fresh);
      ctx->systems_simulated.fetch_add(1, std::memory_order_relaxed);
      return true;
    } catch (const WorkerCrashSignal&) {
      heart->active.store(false, std::memory_order_release);
      ctx->worker_crashes.fetch_add(1, std::memory_order_relaxed);
      metrics.worker_crashes.Inc();
      writer.Close();
      if (durable) {
        ApplyCrashDamage(segment, crash);
        // Salvage-scan what the crash left behind: the supervisor records
        // how much a salvage-only recovery would have kept, and the scan
        // exercises the reader on every crash the fleet ever takes.
        const SpoolReadResult partial = SpoolReader::Read(segment);
        ctx->partial_records_salvageable.fetch_add(partial.records_recovered,
                                                   std::memory_order_relaxed);
      }
      if (attempt > max_restarts) {
        return false;
      }
      ctx->worker_restarts.fetch_add(1, std::memory_order_relaxed);
      metrics.worker_restarts.Inc();
    }
  }
}

// Attempts to restore one system from its spool segment instead of
// simulating it. The reader replays the recovered frames in the live run's
// delivery order, so dedup, sequence-gap and out-of-order bookkeeping
// re-derive exactly the live counters, and the sort in CompleteShard
// reproduces the identical stream.
bool TryRestoreShard(const SystemOptions& options, SystemShard* shard, FleetRunContext* ctx,
                     const std::unordered_map<uint32_t, uint64_t>& manifest_collected) {
  CollectionServer replayed;
  const SpoolReadResult r = SpoolReader::Read(ctx->SegmentPath(options.system_id), &replayed);
  // The completion blob is written after the last shipment, so its presence
  // proves the whole delivery stream was recovered; without it the segment
  // is a partial, usable only under salvage, and only if it holds records.
  SystemRunStats stats;
  std::vector<std::pair<uint32_t, std::string>> process_names;
  const bool have_stats =
      !r.completion.empty() && DecodeCompletion(r.completion, &stats, &process_names) &&
      stats.system_id == options.system_id;
  if ((!have_stats && (!ctx->config.durability.salvage || r.records_recovered == 0)) ||
      !r.Matches(options.system_id, ctx->fingerprint)) {
    return false;
  }
  shard->server = std::move(replayed);
  const uint64_t collected = shard->server.set().records.size();

  // What did the original run collect? The seal is authoritative; for a
  // damaged segment the checkpoint manifest (a separate file, so an
  // independent failure domain) still knows; failing both, the damaged
  // frame's own header gives a lower bound.
  uint64_t live_collected = collected;
  if (r.sealed) {
    live_collected = r.seal.records_collected;
  } else if (auto it = manifest_collected.find(options.system_id);
             it != manifest_collected.end()) {
    live_collected = it->second;
  } else if (!have_stats) {
    live_collected = collected + r.records_lost_known;
  }
  const uint64_t lost = live_collected > collected ? live_collected - collected : 0;

  if (have_stats) {
    shard->stats = std::move(stats);
    shard->process_names = std::move(process_names);
  } else {
    // Crashed partial accepted under salvage: the agent-side counters died
    // with the worker. Synthesize the minimal stats that keep the integrity
    // identity exact -- everything we cannot prove delivered is charged to
    // corruption, never silently dropped.
    shard->stats.system_id = options.system_id;
    shard->stats.category = options.category;
    shard->stats.trace_records = collected + lost;
    shard->stats.trace_emitted = collected + lost;
  }
  shard->records_salvaged = collected;
  shard->records_lost_to_corruption = lost;

  FleetMetrics& metrics = FleetMetrics::Get();
  if (r.sealed && r.frames_damaged == 0 && lost == 0) {
    ctx->systems_resumed.fetch_add(1, std::memory_order_relaxed);
    metrics.systems_resumed.Inc();
  } else {
    ctx->systems_salvaged.fetch_add(1, std::memory_order_relaxed);
    metrics.systems_salvaged.Inc();
  }
  return true;
}

// Runs one system with its deliveries streamed to the loopback collection
// service instead of an in-process shard (DESIGN.md §11); the shard's own
// CollectionServer stays empty until the drain stage swaps the session's
// in. Worker-side crash plans and the watchdog do not apply here -- the
// failure domain under test is the transport and the service, and the
// session layer (retained frames + resume on reconnect) is the recovery
// mechanism, not a re-run. Returns whether the whole stream was shipped.
bool RunSystemOverNet(const SystemOptions& options, SystemShard* shard, FleetRunContext* ctx,
                      LoopbackTransport* net) {
  NetAgentClient client(ctx->config.net, net->service.port(), options.system_id,
                        ctx->fingerprint);
  NetSink sink(&client);
  SimulateSystem(options, shard, sink, /*reserve=*/false);
  // The completion blob rides the stream as the final data frame, so the
  // sealed server-side segment carries everything the fleet's checkpoint
  // pass needs to resume this system without re-simulating it.
  const std::vector<uint8_t> blob = EncodeCompletion(shard->stats, shard->process_names);
  uint64_t collected = 0;
  const bool shipped = !client.failed() && sink.SendCompletion(blob.data(), blob.size()) &&
                       client.FinishStream(&collected);

  net->frames_sent.fetch_add(client.frames_sent(), std::memory_order_relaxed);
  net->reconnects.fetch_add(client.reconnects(), std::memory_order_relaxed);
  for (int k = 1; k <= kNumTransportFaultKinds; ++k) {
    net->faults.fetch_add(client.faults().injected(static_cast<TransportFaultKind>(k)),
                          std::memory_order_relaxed);
  }
  if (!shipped) {
    net->agent_failures.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  ctx->systems_simulated.fetch_add(1, std::memory_order_relaxed);
  if (ctx->config.durability.enabled()) {
    LogSealedSegment(ctx, options.system_id, collected);  // The service sealed it.
  }
  return true;
}

// Stage 1 (durable runs): with `resume`, restore every system whose segment
// an earlier invocation left usable; then open the checkpoint manifest for
// this run's appends.
void ResumeFromSegments(FleetRunContext* ctx) {
  const DurabilityConfig& durability = ctx->config.durability;
  if (!durability.enabled()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(durability.spool_dir, ec);
  const std::string manifest_path = durability.spool_dir + "/manifest.ntspool";
  if (durability.resume) {
    // Loss accounting for damaged segments needs the record counts the
    // manifest logged, so it is read before being reopened for append.
    std::unordered_map<uint32_t, uint64_t> manifest_collected;
    const SpoolReadResult m = SpoolReader::Read(manifest_path);
    if (m.header_valid && m.config_fingerprint == ctx->fingerprint) {
      for (const SpoolManifestEntry& e : m.manifest) {
        manifest_collected[e.system_id] = e.records_collected;  // Keep-last.
      }
    }
    for (size_t i = 0; i < ctx->shards.size(); ++i) {
      if (TryRestoreShard(ctx->options[i], &ctx->shards[i], ctx, manifest_collected)) {
        CompleteShard(ctx, &ctx->shards[i]);
      }
    }
  }
  ctx->manifest.OpenAppend(manifest_path, 0, ctx->fingerprint);
}

// Stage 2 (net runs): stand the loopback service up before any worker
// starts. A service that cannot bind degrades the run to the in-process
// path rather than failing it.
std::unique_ptr<LoopbackTransport> StartTransport(const FleetRunContext& ctx) {
  const NetCollectionConfig& net_config = ctx.config.net;
  if (!net_config.enabled) {
    return nullptr;
  }
  CollectionService::Options options;
  options.config = net_config;
  options.spool_dir = ctx.config.durability.spool_dir;  // Server-side spool iff durable.
  options.config_fingerprint = ctx.fingerprint;
  auto net = std::make_unique<LoopbackTransport>(std::move(options));
  if (!net->service.Start()) {
    return nullptr;
  }
  if (net_config.crash_after_frames > 0) {
    LoopbackTransport* t = net.get();
    t->supervisor = std::jthread([t](std::stop_token stop) {
      while (!stop.stop_requested()) {
        if (t->service.crashed() && t->service.Restart()) {
          t->restarts.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  return net;
}

// Stage 3: simulate every system no earlier stage produced, on the shared
// worker pool (src/base/parallel.h). In-process shards complete on their
// worker; net shards wait in the service for the drain stage.
void SimulateRemaining(FleetRunContext* ctx, LoopbackTransport* net) {
  const FleetConfig& config = ctx->config;
  const int total = static_cast<int>(ctx->shards.size());
  std::vector<WorkerHeartbeat> hearts(static_cast<size_t>(WorkerCount(config.threads, total)));
  // The watchdog only matters when workers can actually wedge: durability
  // runs (long, unattended) and armed crash plans (the hang kind blocks
  // until cancelled).
  const bool watch = config.durability.watchdog_deadline_s > 0 &&
                     (config.durability.enabled() || config.fault_config.crash.enabled());
  Watchdog watchdog(&hearts, watch ? config.durability.watchdog_deadline_s : 0.0,
                    &ctx->watchdog_cancellations);
  // ParallelFor joins its workers before the watchdog and hearts go.
  ParallelFor(total, static_cast<int>(hearts.size()), [&](int i, int worker) {
    SystemShard& shard = ctx->shards[static_cast<size_t>(i)];
    const SystemOptions& options = ctx->options[static_cast<size_t>(i)];
    if (shard.state != ShardState::kPending) {
      return;  // Resumed from its segment.
    }
    if (net != nullptr) {
      if (RunSystemOverNet(options, &shard, ctx, net)) {
        shard.state = ShardState::kShipped;
      } else {
        FailShard(ctx, &shard);
      }
    } else if (RunSystemWithRecovery(options, &shard, ctx, &hearts[static_cast<size_t>(worker)])) {
      CompleteShard(ctx, &shard);
    } else {
      FailShard(ctx, &shard);
    }
  });
}

// Stage 4 (net runs): stop the service, take every shipped shard's records
// from its session (or, when a crash cleared the session, from its sealed
// segment), then complete the shards on the worker pool.
void DrainTransport(FleetRunContext* ctx, LoopbackTransport* net, FleetNetStats* out) {
  const auto drain_start = std::chrono::steady_clock::now();
  net->supervisor = std::jthread();  // Stops and joins the crash supervisor, if any.
  net->service.Stop();  // Graceful drain; sessions survive for TakeSession.
  std::vector<SystemShard*> taken;
  for (size_t i = 0; i < ctx->shards.size(); ++i) {
    SystemShard& shard = ctx->shards[i];
    if (shard.state != ShardState::kShipped) {
      continue;
    }
    const uint32_t id = ctx->options[i].system_id;
    NetSessionResult session;
    if (net->service.TakeSession(id, &session)) {
      shard.server = std::move(session.server);
    } else {
      // No live session: the agent finished (seal + bye-ack) and then a
      // later crash cleared the session table without the agent ever
      // reconnecting. The sealed segment has the whole stream; without a
      // spool the system's data died with the service.
      CollectionServer replayed;
      const SpoolReadResult r = ctx->config.durability.enabled()
                                    ? SpoolReader::Read(ctx->SegmentPath(id), &replayed)
                                    : SpoolReadResult();
      if (!r.sealed || !r.Matches(id, ctx->fingerprint)) {
        FailShard(ctx, &shard);
        continue;
      }
      shard.server = std::move(replayed);
    }
    taken.push_back(&shard);
  }
  const int n = static_cast<int>(taken.size());
  ParallelFor(n, WorkerCount(ctx->config.threads, n),
              [&](int i, int) { CompleteShard(ctx, taken[static_cast<size_t>(i)]); });
  const NetServiceStats s = net->service.stats();
  out->used = true;
  out->frames_sent = net->frames_sent.load();
  out->frames_delivered = s.frames_delivered;
  out->records_delivered = s.records_delivered;
  out->duplicate_frames = s.duplicate_frames;
  out->out_of_order_frames = s.out_of_order_frames;
  out->frames_dropped = s.frames_dropped;
  out->busy_signals = s.busy_signals;
  out->shed_signals = s.shed_signals;
  out->evictions = s.evictions;
  out->connections_accepted = s.connections_accepted;
  out->agent_reconnects = net->reconnects.load();
  out->agent_faults_injected = net->faults.load();
  out->sessions_restored = s.sessions_restored;
  out->server_crashes = s.crashes;
  out->server_restarts = net->restarts.load();
  out->agent_failures = net->agent_failures.load();
  FleetMetrics::Get().drain_wall_us_sum.Inc(static_cast<uint64_t>(ElapsedMicros(drain_start)));
}

// Stage 5: merge the completed shards in system-id order -- stats, process
// names, the integrity report (agent-side counters reconciled against each
// shard server's sequence bookkeeping, faults included), then the trace in
// its one form. A row run k-way merges the time-sorted shard streams into
// FleetResult::trace. A columnar run hands the spills, names and process
// table to ColumnarTraceSet::WriteMerged, which builds
// <columnar_dir>/merged.ntx from the spills' extent frames, in system-id
// order (system-major: each system's time-sorted stream in turn, no record
// encoded twice), and owns the tables from then on; FleetResult::trace stays
// empty.
void MergeShards(FleetRunContext* ctx, FleetResult* result) {
  const auto merge_start = std::chrono::steady_clock::now();
  const bool columnar = !ctx->config.columnar_dir.empty();
  std::vector<std::vector<TraceRecord>> sorted_runs;
  std::vector<std::string> spills;
  std::vector<NameRecord> names;
  // (pid, image name), first pid wins, in the sequence a row run's map takes
  // them, so replaying these emplaces rebuilds that map exactly.
  std::vector<std::pair<uint32_t, std::string>> processes;
  std::unordered_set<uint32_t> pids;
  size_t name_count = 0;
  for (const SystemShard& shard : ctx->shards) {
    name_count += shard.state == ShardState::kComplete ? shard.server.set().names.size() : 0;
  }
  names.reserve(name_count);
  sorted_runs.reserve(columnar ? 0 : ctx->shards.size());
  for (SystemShard& shard : ctx->shards) {
    if (shard.state != ShardState::kComplete) {
      continue;  // A failed system is absent from the output.
    }
    for (auto& [pid, name] : shard.process_names) {
      if (pids.insert(pid).second) {
        processes.emplace_back(pid, std::move(name));
      }
    }
    const SystemRunStats& s = shard.stats;
    SystemIntegrity row;
    row.system_id = s.system_id;
    row.records_emitted = s.trace_emitted;
    row.records_overflow_dropped = s.trace_drops;
    row.records_shed = s.trace_shed;
    row.records_lost = s.trace_lost;
    row.records_unresolved = s.trace_unresolved;
    row.shipments_sent = s.shipments_sent;
    row.shipment_attempts = s.shipment_attempts;
    row.shipment_failures = s.shipment_failures;
    row.shipments_abandoned = s.shipments_abandoned;
    row.peak_retry_backlog = s.peak_retry_backlog;
    shard.server.FillIntegrity(&row);
    // An abandoned shipment whose payload did arrive (only the final
    // acknowledgement was lost) is counted by both sides; it is collected,
    // not lost.
    if (const CollectionServer::StreamState* stream = shard.server.StreamOf(s.system_id)) {
      for (const auto& [sequence, count] : s.abandoned_shipments) {
        if (stream->Received(sequence)) {
          row.records_lost -= count;
        }
      }
    }
    row.records_salvaged = shard.records_salvaged;
    row.records_lost_to_corruption = shard.records_lost_to_corruption;
    result->integrity.systems.push_back(row);
    result->recovery.records_salvaged += shard.records_salvaged;
    result->recovery.records_lost_to_corruption += shard.records_lost_to_corruption;

    TraceSet& collected = shard.server.Finish();  // Already sorted by CompleteShard.
    if (columnar) {
      spills.push_back(shard.spill_path);  // Records already on disk.
    } else {
      sorted_runs.push_back(std::move(collected.records));
    }
    names.insert(names.end(), std::make_move_iterator(collected.names.begin()),
                 std::make_move_iterator(collected.names.end()));
    collected.names.clear();
    collected.names.shrink_to_fit();
    result->systems.push_back(std::move(shard.stats));
  }
  if (columnar) {
    result->columnar = ColumnarTraceSet::WriteMerged(
        ctx->config.columnar_dir + "/merged.ntx", spills, std::move(names), std::move(processes),
        kSpillExtentRecords, ctx->fingerprint);
    result->columnar_mode = true;
    result->records_on_disk = result->columnar.record_count();
    for (const std::string& p : spills) {
      std::remove(p.c_str());  // Spill segments are dead once merged.
    }
  } else {
    result->trace.MergeSortedRuns(std::move(sorted_runs));
    result->trace.names = std::move(names);
    for (auto& [pid, name] : processes) {
      result->trace.process_names.emplace(pid, std::move(name));
    }
    // Build the lookup index while still single-threaded so concurrent
    // analyses never race on the lazy build.
    result->trace.EnsureNameIndex();
  }
  const int64_t merge_us = ElapsedMicros(merge_start);
  FleetMetrics& metrics = FleetMetrics::Get();
  metrics.merge_wall_us_sum.Inc(static_cast<uint64_t>(merge_us));
  metrics.last_merge_wall_us.Set(merge_us);
}

}  // namespace

std::vector<SystemOptions> FleetSystemOptions(const FleetConfig& config) {
  // Pre-draw every system's seed from the seeder in system-id order; the
  // per-system seed stream is then fixed before any worker starts -- and a
  // restarted worker re-draws nothing, so a crash-and-restart reproduces the
  // identical stream. The replayer calls this too: it is the contract that
  // lets a recorded system's stack be rebuilt from the FleetConfig alone.
  std::vector<SystemOptions> all_options;
  all_options.reserve(static_cast<size_t>(config.TotalSystems()));
  Rng seeder(config.seed);
  uint32_t system_id = 1;
  auto add_category = [&](UsageCategory category, int count) {
    for (int i = 0; i < count; ++i) {
      SystemOptions options;
      options.system_id = system_id++;
      options.category = category;
      options.seed = seeder.NextU64();
      options.days = config.days;
      options.activity_scale = config.activity_scale;
      options.content_scale = config.content_scale;
      options.cache_config = config.cache_config;
      options.fs_options = config.fs_options;
      options.filter_options = config.filter_options;
      options.fault_config = config.fault_config;
      options.shipment_policy = config.shipment_policy;
      all_options.push_back(options);
    }
  };
  add_category(UsageCategory::kWalkUp, config.walk_up);
  add_category(UsageCategory::kPool, config.pool);
  add_category(UsageCategory::kPersonal, config.personal);
  add_category(UsageCategory::kAdministrative, config.administrative);
  add_category(UsageCategory::kScientific, config.scientific);
  return all_options;
}

FleetResult RunFleet(const FleetConfig& config) {
  // Snapshot the cumulative process-wide registry now so the result can
  // carry only this run's delta.
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  FleetMetrics::Get().runs.Inc();
  FleetRunContext ctx(config);
  ResumeFromSegments(&ctx);
  const std::unique_ptr<LoopbackTransport> net = StartTransport(ctx);
  SimulateRemaining(&ctx, net.get());
  FleetResult result;
  if (net != nullptr) {
    DrainTransport(&ctx, net.get(), &result.net);
  }
  MergeShards(&ctx, &result);

  FleetRecoveryStats& recovery = result.recovery;
  recovery.systems_simulated = ctx.systems_simulated.load();
  recovery.systems_resumed = ctx.systems_resumed.load();
  recovery.systems_salvaged = ctx.systems_salvaged.load();
  recovery.systems_failed = ctx.systems_failed.load();
  for (size_t i = 0; i < ctx.shards.size(); ++i) {
    if (ctx.shards[i].state == ShardState::kFailed) {
      recovery.failed_system_ids.push_back(ctx.options[i].system_id);
    }
  }
  recovery.worker_crashes = ctx.worker_crashes.load();
  recovery.worker_restarts = ctx.worker_restarts.load();
  recovery.watchdog_cancellations = ctx.watchdog_cancellations.load();
  // A resumed system's segment was sealed by the invocation that completed
  // it; the field reports seals on disk at the end of the run, not seal
  // writes performed by this one (the metric counter keeps that meaning).
  recovery.segments_sealed = ctx.segments_sealed.load() + ctx.systems_resumed.load();
  recovery.partial_records_salvageable = ctx.partial_records_salvageable.load();

  result.metrics = MetricsRegistry::Global().Snapshot().DeltaFrom(metrics_before);
  return result;
}

}  // namespace ntrace
