#include "src/study/study.h"

#include <cassert>

namespace ntrace {

Study::Study(StudyConfig config) : config_(std::move(config)) {}

void Study::Run() {
  assert(!result_.has_value() && "Run() called twice");
  // A columnar fleet leaves FleetResult::trace without records, and every
  // row analysis below would silently compute over nothing.
  assert(config_.fleet.columnar_dir.empty() &&
         "Study needs the row trace: run it without fleet.columnar_dir");
  result_ = RunFleet(config_.fleet);
}

const TraceSet& Study::trace() const {
  assert(result_.has_value());
  return result_->trace;
}

const TraceSet& Study::app_trace() {
  assert(result_.has_value());
  if (!app_trace_.has_value()) {
    app_trace_ = result_->trace.WithoutCacheInducedPaging();
    // Index while still single-threaded; analyses may then share the view
    // concurrently without racing on the lazy name-index build.
    app_trace_->EnsureNameIndex();
  }
  return *app_trace_;
}

const SystemIndex& Study::system_index() {
  if (!system_index_.has_value()) {
    system_index_ = SystemIndex::Build(trace());
  }
  return *system_index_;
}

const InstanceTable& Study::instances() {
  if (!instances_.has_value()) {
    // Built over the *full* trace so paging attribution survives, but the
    // per-record filtering inside InstanceTable::Build already separates the
    // classes; analyses that must exclude duplicates use the counters.
    instances_ = InstanceTable::Build(trace(), system_index(), config_.fleet.threads);
  }
  return *instances_;
}

const std::vector<SystemRunStats>& Study::systems() const {
  assert(result_.has_value());
  return result_->systems;
}

CacheStats Study::total_cache_stats() const {
  assert(result_.has_value());
  return result_->TotalCache();
}

const IntegrityReport& Study::integrity() const {
  assert(result_.has_value());
  return result_->integrity;
}

const std::vector<uint32_t>& Study::failed_system_ids() const {
  assert(result_.has_value());
  return result_->recovery.failed_system_ids;
}

const TraceScan& Study::Scan() {
  if (!scan_.has_value()) {
    scan_ = TraceScan::Run(trace(), config_.fleet.threads);
    // Loss-aware coverage (DESIGN.md §16): what the collection pipeline
    // knows never reached the server is invisible to the scan, so every
    // figure below is a share of a known fraction of the emitted records.
    // (A row scan knows no loss of its own; a store scan would.)
    const SystemIntegrity t = integrity().Totals();
    scan_->records_lost_known = t.records_overflow_dropped + t.records_shed + t.records_lost +
                                t.records_unresolved + t.records_lost_to_corruption;
  }
  return *scan_;
}

const UserActivityResult& Study::UserActivity() {
  if (!user_activity_.has_value()) {
    user_activity_ = UserActivityAnalyzer::Analyze(trace(), system_index(), config_.fleet.threads);
  }
  return *user_activity_;
}

const AccessPatternTable& Study::AccessPatterns() {
  if (!access_patterns_.has_value()) {
    access_patterns_ = AccessPatternAnalyzer::BuildTable(instances());
  }
  return *access_patterns_;
}

const RunLengthResult& Study::RunLengths() {
  if (!run_lengths_.has_value()) {
    run_lengths_ = AccessPatternAnalyzer::AnalyzeRuns(instances());
  }
  return *run_lengths_;
}

const FileSizeResult& Study::FileSizes() {
  if (!file_sizes_.has_value()) {
    file_sizes_ = AccessPatternAnalyzer::AnalyzeFileSizes(instances());
  }
  return *file_sizes_;
}

const SessionResult& Study::Sessions() {
  if (!sessions_.has_value()) {
    sessions_ = SessionAnalyzer::Analyze(system_index(), instances(), config_.fleet.threads);
  }
  return *sessions_;
}

const LifetimeResult& Study::Lifetimes() {
  if (!lifetimes_.has_value()) {
    lifetimes_ = LifetimeAnalyzer::Analyze(instances(), config_.fleet.threads);
    lifetimes_->overwrite_with_dirty_fraction =
        total_cache_stats().purge_calls > 0
            ? static_cast<double>(total_cache_stats().purges_with_dirty) /
                  total_cache_stats().purge_calls
            : 0;
  }
  return *lifetimes_;
}

const FastIoResultAnalysis& Study::FastIo() {
  if (!fastio_.has_value()) {
    fastio_ = FastIoAnalyzer::Analyze(Scan());
  }
  return *fastio_;
}

const OperationResult& Study::Operations() {
  if (!operations_.has_value()) {
    operations_ = OperationAnalyzer::Analyze(Scan(), instances());
  }
  return *operations_;
}

const CacheAnalysisResult& Study::Cache() {
  if (!cache_.has_value()) {
    cache_ = CacheAnalyzer::Analyze(Scan(), instances(), total_cache_stats());
    // "At least 25%-35% of all the deleted new files could have benefited
    // from the use of this attribute" (section 6.3): short-lived deaths
    // that did not use the temporary path.
    const LifetimeResult& lifetimes = Lifetimes();
    uint64_t candidates = 0;
    for (const NewFileDeath& d : lifetimes.deaths) {
      // Candidates: explicitly deleted new files that died quickly, were
      // never re-opened in between, and were deleted by their creator --
      // i.e. the data never needed to reach the disk at all.
      if (d.method == DeletionMethod::kExplicitDelete && d.lifetime_ms <= 5000.0 &&
          d.opens_between == 0 && d.same_process) {
        ++candidates;
      }
    }
    if (!lifetimes.deaths.empty()) {
      cache_->temporary_benefit_fraction =
          static_cast<double>(candidates) / static_cast<double>(lifetimes.deaths.size());
    }
  }
  return *cache_;
}

ArrivalViews Study::Burstiness(uint32_t system_id) {
  return BurstinessAnalyzer::BuildArrivalViews(trace(), system_index(), system_id);
}

std::vector<TailDiagnostics> Study::TailSweep() {
  return BurstinessAnalyzer::SweepAll(trace(), system_index(), instances(), config_.fleet.threads);
}

std::vector<ProcessProfile> Study::ProcessProfiles() {
  return ProcessProfileAnalyzer::ByProcess(trace(), instances(), config_.fleet.threads);
}

std::vector<FileTypeProfile> Study::FileTypeProfiles() {
  return ProcessProfileAnalyzer::ByFileType(instances());
}

std::vector<ContentSummary> Study::ContentSummaries() {
  std::vector<ContentSummary> out;
  for (const SystemRunStats& s : systems()) {
    for (const SnapshotSeries& series : s.snapshots) {
      if (!series.snapshots.empty()) {
        out.push_back(SnapshotAnalyzer::SummarizeContent(series.snapshots.back()));
      }
    }
  }
  return out;
}

std::vector<ChurnSummary> Study::ChurnSummaries() {
  std::vector<ChurnSummary> out;
  for (const SystemRunStats& s : systems()) {
    for (const SnapshotSeries& series : s.snapshots) {
      if (series.snapshots.size() >= 2) {
        out.push_back(SnapshotAnalyzer::AnalyzeChurn(series));
      }
    }
  }
  return out;
}

}  // namespace ntrace
