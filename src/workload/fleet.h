// The study fleet: N systems across the five usage categories, traced into
// one collection (paper sections 2-3: 45 systems selected from 250, three
// collection servers, 4 weeks).
//
// Systems are simulated on private engines whose clocks all start at the
// same epoch; the merged trace is time-comparable across systems, exactly
// as the study's per-system traces were. Each system is embarrassingly
// parallel (private engine, pre-drawn seed, its own CollectionServer
// shard), so `FleetConfig::threads` runs the fleet on a fixed-size worker
// pool; shards are merged in system-id order and the per-system
// time-sorted streams are k-way merged (rows) or put end to end (the
// columnar store), making the output bit-identical for every thread count
// (DESIGN.md §7). threads == 1 (the default) is
// the sequential path and bounds peak memory to one machine's state plus
// the collected shards; N workers hold at most N machines' state.

#ifndef SRC_WORKLOAD_FLEET_H_
#define SRC_WORKLOAD_FLEET_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/net/net_config.h"
#include "src/trace/collection_server.h"
#include "src/trace/extent_store.h"
#include "src/workload/simulated_system.h"

namespace ntrace {

// Durable-spool and crash-recovery configuration (DESIGN.md §10). Off by
// default: with an empty spool_dir the fleet touches no disk and behaves
// exactly as before the durability layer existed.
struct DurabilityConfig {
  // Directory for per-system spool segments and the checkpoint manifest.
  // Created if missing. Empty disables durability entirely.
  std::string spool_dir;
  // Restore systems from sealed segments found in spool_dir instead of
  // re-simulating them (segments are validated against a fingerprint of the
  // fleet configuration, so a stale directory is ignored, never trusted).
  bool resume = true;
  // Also accept damaged or unsealed segments: replay the valid prefix and
  // charge what the original run had collected beyond it to
  // records_lost_to_corruption. Without salvage, damaged segments are
  // re-simulated from scratch.
  bool salvage = false;
  // Restarts granted per system after a crash before it is declared failed
  // and dropped from the merged output.
  int max_restarts = 3;
  // A worker that delivers nothing for this long (wall clock) is cancelled
  // by the watchdog and treated as crashed. <= 0 disables the watchdog.
  double watchdog_deadline_s = 30.0;

  bool enabled() const { return !spool_dir.empty(); }
};

// What the supervisor did to get the run finished (wall-clock facts, like
// FleetResult::metrics excluded from the bit-identical output contract --
// except records_salvaged / records_lost_to_corruption, which are exact).
struct FleetRecoveryStats {
  uint64_t systems_simulated = 0;    // Ran live (restarted runs count once).
  uint64_t systems_resumed = 0;      // Restored from sealed segments.
  uint64_t systems_salvaged = 0;     // Restored from damaged segments.
  uint64_t systems_failed = 0;       // Restarts exhausted; absent from output.
  // The ids of those systems, ascending: no integrity row, record or name
  // carries them, so a report must list them to show the run is incomplete.
  std::vector<uint32_t> failed_system_ids;
  uint64_t worker_crashes = 0;       // Injected crashes observed.
  uint64_t worker_restarts = 0;
  uint64_t watchdog_cancellations = 0;
  // Systems ending the run with a sealed checkpoint segment on disk: those
  // sealed by this invocation's workers plus those resumed from a seal left
  // by an earlier one.
  uint64_t segments_sealed = 0;
  // Records readable from crashed partial segments at the time of the crash
  // (what a salvage-only recovery would have kept).
  uint64_t partial_records_salvageable = 0;
  uint64_t records_salvaged = 0;
  uint64_t records_lost_to_corruption = 0;
};

// Transport accounting for a run collected over the loopback service
// (DESIGN.md §11). Wall-clock / transport facts: like FleetResult::metrics
// they are excluded from the bit-identical output contract -- the whole
// point of the session layer is that none of this changes the merged trace.
// All zero when net collection is off.
struct FleetNetStats {
  bool used = false;                 // The run went over the socket.
  uint64_t frames_sent = 0;          // Data frames assigned by agents.
  uint64_t frames_delivered = 0;     // In-order deliveries at the service.
  uint64_t records_delivered = 0;
  uint64_t duplicate_frames = 0;     // Absorbed by the session layer.
  uint64_t out_of_order_frames = 0;  // Parked in reorder buffers.
  uint64_t frames_dropped = 0;       // Reorder overflow (resent later).
  uint64_t busy_signals = 0;         // BUSY acks the service sent.
  uint64_t shed_signals = 0;         // SHED acks the service sent.
  uint64_t evictions = 0;            // Slow clients closed by their shard.
  uint64_t connections_accepted = 0;
  uint64_t agent_reconnects = 0;
  uint64_t agent_faults_injected = 0;  // Transport faults that fired.
  uint64_t sessions_restored = 0;      // Rebuilt from segments after a crash.
  uint64_t server_crashes = 0;         // Injected service crashes.
  uint64_t server_restarts = 0;        // Supervisor restarts of the service.
  uint64_t agent_failures = 0;         // Agents out of retries (system absent).
};

struct FleetConfig {
  // Systems per usage category (paper total: 45). Defaults give a small,
  // fast fleet; benches scale these up.
  int walk_up = 2;
  int pool = 2;
  int personal = 2;
  int administrative = 1;
  int scientific = 1;

  int days = 1;
  uint64_t seed = 42;
  double activity_scale = 1.0;
  double content_scale = 1.0;
  CacheConfig cache_config;
  FsOptions fs_options;
  TraceFilterOptions filter_options;
  // Fault schedule applied to every system (each machine gets its own
  // injector stream derived from fault_config.seed + system_id, so results
  // are reproducible per system). Disabled by default.
  FaultConfig fault_config;
  ShipmentPolicy shipment_policy;
  // Durable spool + checkpoint/resume (DESIGN.md §10). Like `threads`,
  // enabling durability never changes the merged output of a run that
  // finishes: trace bytes, names and integrity are bit-identical with the
  // spool on or off, across crashes and resumes.
  DurabilityConfig durability;
  // Networked collection (DESIGN.md §11): when net.enabled, systems stream
  // their deliveries to a loopback CollectionService over TCP instead of
  // into in-process shards. The session layer guarantees exactly-once,
  // in-order delivery, so -- like `threads` and `durability` -- the merged
  // output is bit-identical with the socket on or off, whatever transport
  // faults or server crashes the run takes. With durability also enabled,
  // the service spools server-side and a mid-stream crash resumes exactly.
  NetCollectionConfig net;

  // Columnar out-of-core collection (DESIGN.md §12): when non-empty, every
  // completed system's time-sorted shard spills to a per-system columnar
  // extent segment under this directory as soon as the system completes
  // (its row vector is freed), and the merge phase copies the segments'
  // extent frames end to end into <dir>/merged.ntx. The store is
  // system-major: each system's time-sorted stream, in system-id order.
  // In-process runs bound record memory by O(live systems x one shard)
  // instead of O(total records); a net run does not, because the service
  // holds every session's rows until the drain. A run fills exactly one
  // trace form: with this knob FleetResult::columnar carries the
  // disk-backed merged store with its name and process tables, and
  // FleetResult::trace stays empty (integrity is FleetResult::integrity in
  // both modes). This knob changes where the records live and their
  // cross-system order, never analysis output: TraceScan over the columnar
  // store is byte-identical to the row path. Study rejects it: its row
  // analyses need FleetResult::trace.records.
  std::string columnar_dir;

  // Worker threads simulating systems concurrently: 1 = sequential
  // (default), 0 = hardware concurrency, N = pool of N (capped at the
  // system count). The merged output is bit-identical across all values --
  // trace bytes, names, process map and integrity report alike.
  int threads = 1;

  int TotalSystems() const {
    return walk_up + pool + personal + administrative + scientific;
  }
};

struct FleetResult {
  // A row run's trace: merged, time-sorted, with names and process names
  // resolved. Empty in columnar mode, whose trace is `columnar` alone.
  TraceSet trace;
  std::vector<SystemRunStats> systems;
  // Per-system pipeline accounting (agent counters merged with the
  // collection server's sequence bookkeeping, abandoned shipments
  // reconciled against what actually arrived). Every emitted record is
  // collected, overflow-dropped, shed, lost or unresolved -- AllAccounted()
  // holds for clean and faulted runs alike.
  IntegrityReport integrity;
  // What the process-wide metrics registry recorded during this run (delta
  // of global snapshots taken at RunFleet entry/exit, so earlier runs in
  // the same process do not bleed in; concurrent RunFleet calls would).
  // Tests cross-check these against the analysis layer: the FastIO share
  // and cache hit ratio here equal the figure-13 / section-9 values
  // computed from the merged trace of the same run.
  MetricsSnapshot metrics;
  // What the crash-recovery supervisor did (all zero when durability is off
  // and no crash plan is armed).
  FleetRecoveryStats recovery;
  // What the transport did when the run was collected over the socket.
  FleetNetStats net;
  // Columnar mode (FleetConfig::columnar_dir): the run's one trace form, the
  // merged trace as a disk-backed, system-major columnar extent store with
  // its name and process tables; it equals ColumnarTraceSet::FromFile of
  // <columnar_dir>/merged.ntx, read stats included. `trace` is empty. Scan
  // analyses consume this via TraceScan::Run(columnar); row-only analyses
  // can materialize with columnar.ToRows() at O(records) memory.
  ColumnarTraceSet columnar;
  bool columnar_mode = false;
  // Records in the merged on-disk store (columnar mode; else 0).
  uint64_t records_on_disk = 0;

  // Aggregates across systems.
  CacheStats TotalCache() const;
  uint64_t TotalFastIoReadAttempts() const;
  uint64_t TotalFastIoReadHits() const;
  uint64_t TotalFastIoWriteAttempts() const;
  uint64_t TotalFastIoWriteHits() const;
};

// The per-system options RunFleet derives from a fleet config: seeds
// pre-drawn from config.seed in system-id order across the five categories.
// Exposed so a trace replayer can rebuild any recorded system's stack from
// the recording configuration alone (src/replay).
std::vector<SystemOptions> FleetSystemOptions(const FleetConfig& config);

// Runs the configured fleet and returns the merged collection.
FleetResult RunFleet(const FleetConfig& config);

}  // namespace ntrace

#endif  // SRC_WORKLOAD_FLEET_H_
