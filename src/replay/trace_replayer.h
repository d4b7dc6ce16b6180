// Fleet-level trace replay (DESIGN.md §13).
//
// TraceReplayer rebuilds every system of a recording configuration and
// feeds each one its slice of a recorded collection through ReplaySystem,
// one (run, system) unit at a time on the shared worker pool, then merges
// each run's regenerated streams exactly the way RunFleet merges live
// shards. Replaying under the recording configuration must reproduce the
// original collection byte-for-byte -- CheckFidelity and TraceFingerprint
// pin that contract in tests and CI -- while a PolicyConfig override turns
// the same machinery into a what-if engine (src/replay/policy_sweep.h).

#ifndef SRC_REPLAY_TRACE_REPLAYER_H_
#define SRC_REPLAY_TRACE_REPLAYER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/replay/replay_system.h"
#include "src/trace/extent_store.h"
#include "src/workload/fleet.h"

namespace ntrace {

struct FleetReplayResult {
  TraceSet trace;  // Merged regenerated collection (records, names, process map).
  std::vector<SystemReplayResult> systems;
  ReplayDivergence divergence;  // Sum across systems.
  CacheStats cache;             // Sum across systems (live replay-side stats).
  uint64_t fastio_read_attempts = 0;
  uint64_t fastio_read_hits = 0;
  uint64_t fastio_write_attempts = 0;
  uint64_t fastio_write_hits = 0;
  uint64_t irp_count = 0;
  uint64_t records_in = 0;  // Replayable input records across systems.
  // Degraded-mode accounting across systems (DESIGN.md §16): all-zero
  // unless the input was salvaged and ReplayOptions::tolerate_gaps was set.
  DegradedReplayReport degraded;
  // Process-wide metrics delta over the replay (same contract as
  // FleetResult::metrics: wall-clock facts, excluded from bit-identity).
  MetricsSnapshot metrics;
};

// Derive ReplayOptions::salvage from the layer that knows the loss: the
// extent-store reader's salvage accounting, or the fleet's end-to-end
// integrity report (records that never reached the collection server are
// gaps for the replayer exactly like records lost to store damage).
ReplaySalvageInfo SalvageInfoFromStats(const ExtentReadStats& stats);
ReplaySalvageInfo SalvageInfoFromIntegrity(const IntegrityReport& report);

// Byte-level comparison of a recorded collection and its replay.
struct FidelityReport {
  bool identical = false;        // records: count and bytes.
  bool names_identical = false;  // names: count, ids and paths.
  uint64_t original_records = 0;
  uint64_t replayed_records = 0;
  // First record index whose 80 bytes differ (or the shorter length when
  // only the counts differ); SIZE_MAX when identical.
  size_t first_mismatch = SIZE_MAX;
  std::string detail;  // Human-readable mismatch description, empty if exact.

  bool exact() const { return identical && names_identical; }
};

// CRC32C over the raw record bytes then every name record (id, system, path
// bytes). Two collections with equal fingerprints are byte-identical for
// replay purposes; the bench emits this as the fidelity fingerprint.
uint32_t TraceFingerprint(const TraceSet& trace);

FidelityReport CheckFidelity(const TraceSet& original, const TraceSet& replayed);

class TraceReplayer {
 public:
  // `config` must be the configuration the trace was recorded under; the
  // per-system stacks (seeds, cache sizing, file-id bases, fault streams)
  // are rebuilt from it via FleetSystemOptions.
  explicit TraceReplayer(const FleetConfig& config);

  using RunDone = std::function<void(size_t run, FleetReplayResult result)>;

  // Replays `recorded` once per entry of `runs` on `threads` workers (<= 0:
  // all cores), slicing it once; units start run by run, longest slice
  // first within a run. The worker that finishes a run's last system
  // merges the run, passes it to `done` (concurrently with other runs, in
  // any order) and frees it. Results are bit-identical for every thread
  // count and carry no `metrics` delta: runs overlap.
  void ReplayEach(const TraceSet& recorded, const std::vector<ReplayOptions>& runs, int threads,
                  const RunDone& done) const;

  // One run of ReplayEach, plus the process-wide metrics delta over it. The
  // merged output is bit-identical for every thread count, mirroring
  // RunFleet's contract.
  FleetReplayResult Replay(const TraceSet& recorded, const ReplayOptions& options = {},
                           int threads = 1) const;
  // Columnar input: materializes rows (O(records) memory) and replays them.
  FleetReplayResult Replay(const ColumnarTraceSet& recorded, const ReplayOptions& options = {},
                           int threads = 1) const;

  const std::vector<SystemOptions>& system_options() const { return system_options_; }

 private:
  std::vector<SystemOptions> system_options_;
};

}  // namespace ntrace

#endif  // SRC_REPLAY_TRACE_REPLAYER_H_
