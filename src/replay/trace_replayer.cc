#include "src/replay/trace_replayer.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <sstream>
#include <utility>

#include "src/base/crc32c.h"
#include "src/base/parallel.h"

namespace ntrace {

namespace {

// Merges one run's per-system results in system-id order, exactly like
// RunFleet's merge phase.
FleetReplayResult MergeRun(const TraceSet& recorded, const ReplayOptions& options,
                           std::vector<SystemReplayResult> results) {
  FleetReplayResult out;
  std::vector<std::vector<TraceRecord>> sorted_runs;
  sorted_runs.reserve(results.size());
  for (SystemReplayResult& r : results) {
    sorted_runs.push_back(std::move(r.records));
    out.trace.names.insert(out.trace.names.end(), r.names.begin(), r.names.end());
    r.names.clear();
    out.divergence.Accumulate(r.divergence);
    out.cache.Accumulate(r.cache);
    out.fastio_read_attempts += r.fastio_read_attempts;
    out.fastio_read_hits += r.fastio_read_hits;
    out.fastio_write_attempts += r.fastio_write_attempts;
    out.fastio_write_hits += r.fastio_write_hits;
    out.irp_count += r.irp_count;
    out.records_in += r.records_in;
    out.degraded.Accumulate(r.degraded);
  }
  // Loss is a collection-level figure; echo it once, not once per system.
  out.degraded.records_lost_known = options.salvage.records_lost_known;
  out.trace.MergeSortedRuns(std::move(sorted_runs));
  // The end-of-run process-name capture is not part of the replayable
  // stream; carry the recorded map through.
  out.trace.process_names = recorded.process_names;
  out.trace.EnsureNameIndex();
  out.systems = std::move(results);
  return out;
}

}  // namespace

uint32_t TraceFingerprint(const TraceSet& trace) {
  uint32_t crc = 0;
  if (!trace.records.empty()) {
    crc = Crc32cExtend(crc, trace.records.data(), trace.records.size() * sizeof(TraceRecord));
  }
  for (const NameRecord& n : trace.names) {
    crc = Crc32cExtend(crc, &n.file_object, sizeof(n.file_object));
    crc = Crc32cExtend(crc, &n.system_id, sizeof(n.system_id));
    crc = Crc32cExtend(crc, n.path.data(), n.path.size());
  }
  return crc;
}

FidelityReport CheckFidelity(const TraceSet& original, const TraceSet& replayed) {
  FidelityReport report;
  report.original_records = original.records.size();
  report.replayed_records = replayed.records.size();

  const size_t common =
      original.records.size() < replayed.records.size() ? original.records.size()
                                                        : replayed.records.size();
  size_t mismatch = SIZE_MAX;
  for (size_t i = 0; i < common; ++i) {
    if (std::memcmp(&original.records[i], &replayed.records[i], sizeof(TraceRecord)) != 0) {
      mismatch = i;
      break;
    }
  }
  if (mismatch == SIZE_MAX && original.records.size() != replayed.records.size()) {
    mismatch = common;
  }
  report.identical = mismatch == SIZE_MAX;
  report.first_mismatch = mismatch;

  report.names_identical = original.names.size() == replayed.names.size();
  if (report.names_identical) {
    for (size_t i = 0; i < original.names.size(); ++i) {
      const NameRecord& a = original.names[i];
      const NameRecord& b = replayed.names[i];
      if (a.file_object != b.file_object || a.system_id != b.system_id || a.path != b.path) {
        report.names_identical = false;
        break;
      }
    }
  }

  if (!report.exact()) {
    std::ostringstream os;
    if (!report.identical) {
      os << "records differ at index " << mismatch << " (" << report.original_records
         << " recorded vs " << report.replayed_records << " replayed)";
      if (mismatch < common) {
        const TraceRecord& a = original.records[mismatch];
        const TraceRecord& b = replayed.records[mismatch];
        os << ": recorded {event=" << a.event << " fo=" << a.file_object
           << " start=" << a.start_ticks << " complete=" << a.complete_ticks
           << " offset=" << a.offset << " length=" << a.length << " status=" << a.status
           << "} replayed {event=" << b.event << " fo=" << b.file_object
           << " start=" << b.start_ticks << " complete=" << b.complete_ticks
           << " offset=" << b.offset << " length=" << b.length << " status=" << b.status << "}";
      }
    }
    if (!report.names_identical) {
      if (!report.identical) {
        os << "; ";
      }
      os << "name streams differ (" << original.names.size() << " recorded vs "
         << replayed.names.size() << " replayed)";
    }
    report.detail = os.str();
  }
  return report;
}

ReplaySalvageInfo SalvageInfoFromStats(const ExtentReadStats& stats) {
  ReplaySalvageInfo info;
  info.records_lost_known = stats.KnownLost();
  // The dictionary, name table and seal ride behind the extent frames, so
  // any damage -- or a truncation clean enough to leave no damaged frame --
  // takes the names with it; an unsealed read of a sealed store is the same
  // evidence.
  info.names_lost = stats.frames_damaged > 0 || stats.bytes_discarded > 0 || !stats.sealed;
  return info;
}

ReplaySalvageInfo SalvageInfoFromIntegrity(const IntegrityReport& report) {
  const SystemIntegrity t = report.Totals();
  ReplaySalvageInfo info;
  info.records_lost_known = t.records_overflow_dropped + t.records_shed + t.records_lost +
                            t.records_unresolved + t.records_lost_to_corruption;
  // Shipment loss takes the shipment's name records with it; only a fully
  // collected run is guaranteed a complete name table.
  info.names_lost = info.records_lost_known > 0;
  return info;
}

TraceReplayer::TraceReplayer(const FleetConfig& config)
    : system_options_(FleetSystemOptions(config)) {}

void TraceReplayer::ReplayEach(const TraceSet& recorded, const std::vector<ReplayOptions>& runs,
                               int threads, const RunDone& done) const {
  const size_t systems = system_options_.size();
  if (systems == 0) {
    for (size_t r = 0; r < runs.size(); ++r) {
      done(r, MergeRun(recorded, runs[r], {}));
    }
    return;
  }
  // Slice the collection per system once for every run (preserves
  // per-system emission order: the fleet merge is stable, so a slice equals
  // the shard stream the system originally delivered).
  std::vector<TraceSet> slices(systems);
  for (size_t s = 0; s < systems; ++s) {
    slices[s] = recorded.ForSystem(system_options_[s].system_id);
  }
  // Longest slice first within a run, so a run's biggest system never
  // starts last and leaves the run's other workers idle behind it.
  std::vector<size_t> order(systems);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&slices](size_t a, size_t b) {
    return slices[a].records.size() > slices[b].records.size();
  });

  std::vector<std::vector<SystemReplayResult>> results(runs.size(),
                                                       std::vector<SystemReplayResult>(systems));
  std::vector<std::atomic<size_t>> finished(runs.size());
  const int units = static_cast<int>(runs.size() * systems);
  ParallelFor(units, WorkerCount(threads, units), [&](int unit, int) {
    const size_t r = static_cast<size_t>(unit) / systems;
    const size_t s = order[static_cast<size_t>(unit) % systems];
    results[r][s] = ReplaySystem(system_options_[s], slices[s], runs[r]).Run();
    // acq_rel: the run's last worker sees the other workers' results.
    if (finished[r].fetch_add(1, std::memory_order_acq_rel) + 1 == systems) {
      done(r, MergeRun(recorded, runs[r], std::move(results[r])));
    }
  });
}

FleetReplayResult TraceReplayer::Replay(const TraceSet& recorded, const ReplayOptions& options,
                                        int threads) const {
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  FleetReplayResult out;
  ReplayEach(recorded, {options}, threads,
             [&out](size_t, FleetReplayResult result) { out = std::move(result); });
  out.metrics = MetricsRegistry::Global().Snapshot().DeltaFrom(metrics_before);
  return out;
}

FleetReplayResult TraceReplayer::Replay(const ColumnarTraceSet& recorded,
                                        const ReplayOptions& options, int threads) const {
  const TraceSet rows = recorded.ToRows();
  ReplayOptions effective = options;
  if (effective.tolerate_gaps && !effective.salvage.lossy()) {
    // The columnar reader already did the loss accounting; a gap-tolerant
    // caller should not have to re-derive it.
    effective.salvage = SalvageInfoFromStats(recorded.read_stats());
  }
  return Replay(rows, effective, threads);
}

}  // namespace ntrace
