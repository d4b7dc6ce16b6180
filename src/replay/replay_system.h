// Replays one system's recorded trace through a freshly built simulated
// stack (DESIGN.md §13).
//
// The replayer is a full re-simulation, not a log printer: it rebuilds the
// recorded machine from the recording configuration (same constructor path
// as SimulatedSystem, so cache capacity, RNG draw order, lazy-writer
// schedule and file-id bases all match), then injects only the app-level
// operations of the recorded stream at their reconstructed issue times. The
// live stack regenerates everything the cache and VM managers contributed
// -- cache-fault/read-ahead/lazy-write paging, FastIO fallbacks, two-stage
// closes -- so replaying under the recording policy reproduces the recorded
// stream byte-for-byte, and replaying under a different PolicyConfig
// answers "what would this workload have done on that machine".
//
// Burst reconstruction: the trace filter stamps each record's `reserved`
// field with complete_ticks - current_dispatch_due(), i.e. the distance
// from the engine callback the operation ran in. Records sharing a due time
// consecutively belong to one original callback ("burst"); bursts are
// pre-scheduled at their recorded dues and each operation is paced to its
// reconstructed issue time inside the burst, which preserves the original
// interleaving with the live stack's own background events.

#ifndef SRC_REPLAY_REPLAY_SYSTEM_H_
#define SRC_REPLAY_REPLAY_SYSTEM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/base/time.h"
#include "src/replay/policy_config.h"
#include "src/trace/collection_server.h"
#include "src/trace/trace_set.h"
#include "src/workload/simulated_system.h"

namespace ntrace {

// What the storage layers know was lost from a salvaged input (DESIGN.md
// §16). The replayer treats this as evidence that records missing from the
// stream are storage loss, not a defect of its own reconstruction.
struct ReplaySalvageInfo {
  uint64_t records_lost_known = 0;  // Storage-layer loss accounting total.
  bool names_lost = false;  // Name table damaged or truncated with the store tail.
  bool lossy() const { return records_lost_known > 0 || names_lost; }
};

// Replay is open-loop: every operation is paced to its recorded issue time.
struct ReplayOptions {
  // Replace the recording-time cache/FastIO policies with `policy`. Off =
  // replay the machine exactly as recorded (the fidelity configuration).
  bool apply_policy = false;
  PolicyConfig policy;
  // Degraded mode (DESIGN.md §16): accept salvaged (lossy) traces. Off, an
  // operation on a gap-orphaned id counts divergence as before; on, the
  // replayer reconstructs lost session brackets (synthetic re-opens for
  // orphaned ops, synthetic end-of-run closes for handles whose close fell
  // in a gap), fabricates paths lost with the name table, and re-anchors
  // pacing across gaps instead of issuing a wall of instantly-due
  // operations. A clean input replays byte-identically either way.
  bool tolerate_gaps = false;
  ReplaySalvageInfo salvage;  // Loss accounting of the salvaged input.
  // Open-loop re-anchor threshold: once the live clock has overtaken an
  // op's reconstructed issue time by more than this, the recorded timeline
  // is re-anchored to the live clock; drift between re-anchors stays below
  // this bound.
  int64_t gap_reanchor_ticks = SimDuration::Millis(50).ticks();
};

// Everything the replayer did to span gaps in a salvaged input (DESIGN.md
// §16). All-zero when the input is clean, whatever `tolerate_gaps` says.
struct DegradedReplayReport {
  bool degraded = false;            // Lossy salvage info or gap evidence seen.
  uint64_t records_lost_known = 0;  // Echo of the input's salvage accounting.
  uint64_t gaps_detected = 0;       // Orphan-op clusters + truncated session tails.
  uint64_t synthesized_creates = 0;  // Re-opens for ops whose create fell in a gap.
  uint64_t synthesized_closes = 0;   // End-of-run closes for gap-orphaned handles.
  uint64_t fabricated_names = 0;     // Paths invented where the name table was lost.
  uint64_t orphan_ops_dropped = 0;   // Orphaned ops no synthetic session could absorb.
  uint64_t reanchors = 0;            // Pacing re-anchor events.
  int64_t max_drift_ticks = 0;       // Largest cumulative pacing offset applied.

  uint64_t synthesized_ops() const { return synthesized_creates + synthesized_closes; }
  void Accumulate(const DegradedReplayReport& other);
};

// Everything that kept the replay from being a perfect reconstruction.
// All-zero in a fidelity replay of a clean or fault-injected recording.
struct ReplayDivergence {
  uint64_t late_ops = 0;             // Issue time already passed (clock never rewinds).
  uint64_t id_mismatches = 0;        // Live file-object id != recorded id.
  uint64_t status_mismatches = 0;    // Live result != recorded result.
  uint64_t missing_file_objects = 0; // Record references an id with no live object.
  uint64_t missing_names = 0;        // Create/rename with no name record to consume.
  uint64_t synthesized_renames = 0;  // Failed rename: target was never recorded.
  uint64_t pattern_fallbacks = 0;    // Directory query pattern beyond ""/"*".
  uint64_t unsupported_ops = 0;      // Event with no replay mapping.
  uint64_t saturated_reserved = 0;   // Burst offset overflowed the 32-bit field.
  uint64_t unfired_bursts = 0;       // Scheduled bursts the run never reached.

  uint64_t total() const {
    return late_ops + id_mismatches + status_mismatches + missing_file_objects + missing_names +
           synthesized_renames + pattern_fallbacks + unsupported_ops + saturated_reserved +
           unfired_bursts;
  }
  void Accumulate(const ReplayDivergence& other);
};

struct SystemReplayResult {
  uint32_t system_id = 0;
  uint64_t records_in = 0;  // Replayable (non-cache-induced) input records.
  uint64_t bursts = 0;
  std::vector<TraceRecord> records;  // Regenerated stream, time-sorted.
  std::vector<NameRecord> names;
  ReplayDivergence divergence;
  CacheStats cache;
  uint64_t fastio_read_attempts = 0;
  uint64_t fastio_read_hits = 0;
  uint64_t fastio_write_attempts = 0;
  uint64_t fastio_write_hits = 0;
  uint64_t irp_count = 0;
  DegradedReplayReport degraded;
};

class ReplaySystem {
 public:
  // `recorded` is this system's slice of the collection (records and names
  // in per-system emission order, e.g. TraceSet::ForSystem); it must outlive
  // the replayer. `options` must be the recording-time SystemOptions (see
  // FleetSystemOptions) for the reconstruction to be exact.
  ReplaySystem(const SystemOptions& options, const TraceSet& recorded,
               const ReplayOptions& replay);

  ReplaySystem(const ReplaySystem&) = delete;
  ReplaySystem& operator=(const ReplaySystem&) = delete;

  SystemReplayResult Run();

 private:
  struct Burst {
    int64_t due = 0;
    size_t begin = 0;  // [begin, end) indexes into ops_.
    size_t end = 0;
  };
  struct NameCursor {
    std::vector<const std::string*> entries;  // Create path, then rename targets.
    size_t next = 0;
  };

  static SystemOptions EffectiveOptions(const SystemOptions& options, const ReplayOptions& replay);

  void BuildNameCursors();
  void BuildVolumeIdMap();
  void ExtractBursts();

  void RunBurst(size_t burst_index);
  void ReplayRecord(size_t index);
  void PaceTo(int64_t target_ticks);
  void ReleaseGovernorRefs();
  void SynthesizeCloses();

  FileObject* LookupFileObject(uint64_t id);
  FileObject* ResolveFileObject(const TraceRecord& r);
  FileObject* RecoverOrphan(const TraceRecord& r);
  void NoteGapEvidence();
  const std::string* NextName(uint64_t file_object);

  void ReplayCreate(const TraceRecord& r);
  void ReplayClose(const TraceRecord& r);
  void ReplayPagingIo(size_t index);
  void ReplayFastIoNotPossible(size_t index);
  void ReplaySetInformation(const TraceRecord& r);
  void CheckStatus(const TraceRecord& r, NtStatus live);

  const TraceSet& recorded_;
  ReplayOptions replay_;
  CollectionServer server_;  // Dedupes and time-sorts as the recording's shard did.
  SimulatedSystem sys_;
  int64_t irp_ticks_ = 0;
  int64_t fastio_ticks_ = 0;

  std::vector<const TraceRecord*> ops_;  // Replayable records, stream order.
  std::vector<Burst> bursts_;
  int64_t end_ticks_ = 0;
  size_t fired_bursts_ = 0;
  size_t skip_index_ = SIZE_MAX;  // Fallback IRP already issued by its NP anchor.
  size_t cur_index_ = SIZE_MAX;   // Op index ReplayRecord is working on.
  size_t last_orphan_index_ = SIZE_MAX;  // Clusters orphan evidence into gaps.
  int64_t anchor_offset_ = 0;  // Cumulative open-loop pacing re-anchor shift.

  std::unordered_map<uint64_t, FileObject*> live_;       // Recorded id -> live object.
  std::unordered_set<uint64_t> recorded_closes_;         // Ids with a close record in the input.
  std::unordered_map<uint64_t, std::string> volume_ids_; // Volume file id -> prefix.
  std::unordered_map<uint64_t, NameCursor> name_cursors_;
  ReplayDivergence div_;
  DegradedReplayReport deg_;
};

}  // namespace ntrace

#endif  // SRC_REPLAY_REPLAY_SYSTEM_H_
