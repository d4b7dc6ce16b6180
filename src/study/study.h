// The top-level public API: configure a study, run the fleet, analyze.
//
// A Study is what the paper did end to end -- instrument a fleet, collect a
// trace-and-snapshot data set, and analyze it -- packaged behind one
// object:
//
//   StudyConfig config;
//   config.fleet.days = 1;
//   Study study(config);
//   study.Run();
//   const UserActivityResult activity = study.UserActivity();   // Table 2.
//   const AccessPatternTable patterns = study.AccessPatterns(); // Table 3.
//   study.trace().SaveTo("run.ntx");                            // Publish.
//
// SaveTo writes the one trace file format, an NTCOLX01 extent store;
// ColumnarTraceSet::FromFile reads it back (ToRows() for the row form).
//
// Analyses are computed on demand and memoized; all of them operate on the
// application-level view (cache-induced paging duplicates filtered, section
// 3.3) except where a paper measurement explicitly includes paging I/O.
// Those keyed by system run as per-system folds on the worker pool, their
// partials combined in system-id order.

#ifndef SRC_STUDY_STUDY_H_
#define SRC_STUDY_STUDY_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/analysis/access_patterns.h"
#include "src/analysis/burstiness.h"
#include "src/analysis/cache_analysis.h"
#include "src/analysis/fastio.h"
#include "src/analysis/lifetimes.h"
#include "src/analysis/operations.h"
#include "src/analysis/process_profile.h"
#include "src/analysis/sessions.h"
#include "src/analysis/snapshot_analysis.h"
#include "src/analysis/trace_scan.h"
#include "src/analysis/user_activity.h"
#include "src/tracedb/instance_table.h"
#include "src/tracedb/system_index.h"
#include "src/workload/fleet.h"

namespace ntrace {

struct StudyConfig {
  // Fleet shape and execution. `fleet.threads` sizes the one worker pool
  // (1 = one worker, 0 = hardware concurrency) for the simulation and for
  // the analyses' per-system folds (DESIGN.md §7); every accessor below
  // returns bit-identical results regardless of the value, so thread count
  // is purely a wall-clock knob. `fleet.columnar_dir` must stay empty: the
  // analyses read the row trace, and Run() asserts on it.
  FleetConfig fleet;
};

class Study {
 public:
  explicit Study(StudyConfig config);

  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  // Runs the fleet simulation. Must be called before any accessor.
  void Run();
  bool has_run() const { return result_.has_value(); }

  // --- Raw data ---------------------------------------------------------------
  const TraceSet& trace() const;          // Full trace, paging included.
  const TraceSet& app_trace();            // Cache-induced paging filtered.
  const SystemIndex& system_index();      // trace() partitioned by system.
  const InstanceTable& instances();       // Built over trace(), paging included.
  const std::vector<SystemRunStats>& systems() const;
  CacheStats total_cache_stats() const;
  // Pipeline accounting per system, rows in system-id order. Under
  // parallel execution the report is merged across the per-system server
  // shards (faulted runs included) and is identical to a sequential run's.
  const IntegrityReport& integrity() const;
  // Systems the fleet gave up (FleetRecoveryStats::failed_system_ids):
  // integrity() has no row for them and the trace no record.
  const std::vector<uint32_t>& failed_system_ids() const;

  // The shared single-pass record scan (DESIGN.md §9). Computed once over
  // the full trace and consumed by Operations(), FastIo() and Cache();
  // exposes the cache/paging transfer mix and the record-level sequential
  // run lengths directly.
  const TraceScan& Scan();

  // --- Analyses (memoized) ----------------------------------------------------
  const UserActivityResult& UserActivity();      // Table 2.
  const AccessPatternTable& AccessPatterns();    // Table 3.
  const RunLengthResult& RunLengths();           // Figures 1-2.
  const FileSizeResult& FileSizes();             // Figures 3-4.
  const SessionResult& Sessions();               // Figures 5, 11, 12.
  const LifetimeResult& Lifetimes();             // Figures 6-7.
  const FastIoResultAnalysis& FastIo();          // Figures 13-14.
  const OperationResult& Operations();           // Section 8.
  const CacheAnalysisResult& Cache();            // Section 9.
  ArrivalViews Burstiness(uint32_t system_id = 0);        // Figure 8.
  std::vector<TailDiagnostics> TailSweep();               // Figures 9-10.
  std::vector<ProcessProfile> ProcessProfiles();          // Section 12 extension.
  std::vector<FileTypeProfile> FileTypeProfiles();        // Section 12 extension.
  std::vector<ContentSummary> ContentSummaries();         // Section 5.
  std::vector<ChurnSummary> ChurnSummaries();             // Section 5.

 private:
  StudyConfig config_;
  std::optional<FleetResult> result_;
  std::optional<TraceSet> app_trace_;
  std::optional<SystemIndex> system_index_;
  std::optional<InstanceTable> instances_;
  std::optional<TraceScan> scan_;
  std::optional<UserActivityResult> user_activity_;
  std::optional<AccessPatternTable> access_patterns_;
  std::optional<RunLengthResult> run_lengths_;
  std::optional<FileSizeResult> file_sizes_;
  std::optional<SessionResult> sessions_;
  std::optional<LifetimeResult> lifetimes_;
  std::optional<FastIoResultAnalysis> fastio_;
  std::optional<OperationResult> operations_;
  std::optional<CacheAnalysisResult> cache_;
};

}  // namespace ntrace

#endif  // SRC_STUDY_STUDY_H_
